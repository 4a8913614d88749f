package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"protosim/internal/kernel"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/net"
	"protosim/internal/kernel/sched"
	"protosim/internal/user/apps/chanserv"
	"protosim/internal/user/ulib"
)

// spec is one workload of the benchmark.
type spec struct {
	name    string
	net     bool  // boot with the NIC pair and a peer stack
	warmOps int64 // primary ops completed before the window opens
	mbKind  kind  // whose payload mb_s counts
	create  func(r *run) workload
}

// workload is the per-system state of one spec.
type workload interface {
	// start populates the booted system and launches the load loops.
	start(r *run) error
	// finish winds down workload-side servers once the loops have exited.
	finish(r *run) error
	// verify checks the workload's files on the SD image after shutdown.
	verify(r *run, fat *fat32.FS) error
}

// The workloads stress different columns and layers, so that a change to
// one layer has a workload that exercises it and one that bypasses it.
// BENCHMARK.json and README.md say why each was chosen.
var specs = []spec{
	{
		name:    "sd_append",
		warmOps: 128,
		mbKind:  barrier,
		create:  func(r *run) workload { return &sdAppend{prefix: r.names(1, 2)[0]} },
	},
	{
		name:    "sd_read_mixed",
		warmOps: 300,
		mbKind:  primary,
		create:  func(r *run) workload { return &sdReadMixed{prefix: r.names(1, 2)[0]} },
	},
	{
		name:    "rd_meta_churn",
		warmOps: 2000,
		mbKind:  primary,
		create:  func(r *run) workload { return newMetaChurn(r) },
	},
	{
		name:    "net_echo",
		net:     true,
		warmOps: 2000,
		mbKind:  barrier,
		create:  func(r *run) workload { return newNetEcho(r) },
	},
}

func specNamed(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// --- seeded content ---

const (
	recSize = 4096 // record and read size on the SD workloads
	sdMount = "/d" // where the kernel mounts the SD card's FAT32 volume
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// key folds values into one stream key.
func key(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mix64(h ^ v)
	}
	return h
}

// fill writes the byte stream of key k into b.
func fill(b []byte, k uint64) {
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		k += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(w[:], mix64(k))
		copy(b[i:], w[:])
	}
}

// appendLog is one file of seeded 4 KiB records written at EOF.
type appendLog struct {
	path    string
	key     uint64
	written int64 // records write() accepted
	synced  int64 // records a successful fsync covered
}

const recMagic = 0x4342544f524f5250 // "PROTOBTC" in little-endian bytes

// record renders record seq of the log into b: a header naming it, then
// its seeded bytes.
func (l *appendLog) record(b []byte, seed uint64, seq int64) {
	fill(b, key(seed, l.key, uint64(seq)))
	binary.LittleEndian.PutUint64(b[0:], recMagic)
	binary.LittleEndian.PutUint64(b[8:], l.key)
	binary.LittleEndian.PutUint64(b[16:], uint64(seq))
}

// check reads the log back from a mounted image: after a clean shutdown
// it holds exactly the records write() accepted, every fsynced one among
// them, each byte for byte.
func (l *appendLog) check(fat *fat32.FS, seed uint64) error {
	ops, err := fat.Open(nil, strings.TrimPrefix(l.path, sdMount), fs.ORdOnly)
	if err != nil {
		return fmt.Errorf("%s: %w", l.path, err)
	}
	of := fs.NewOpenFile(ops, fs.ORdOnly)
	defer of.Close(nil)
	st, err := of.Stat(nil)
	if err != nil {
		return fmt.Errorf("%s: %w", l.path, err)
	}
	if st.Size != l.written*recSize || l.synced > l.written {
		return fmt.Errorf("%s holds %d bytes, want %d records (%d fsynced)", l.path, st.Size, l.written, l.synced)
	}
	got, want := make([]byte, recSize), make([]byte, recSize)
	for seq := int64(0); seq < l.written; seq++ {
		if err := preadFull(of, got, seq*recSize); err != nil {
			return fmt.Errorf("%s record %d: %w", l.path, seq, err)
		}
		l.record(want, seed, seq)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s record %d differs from what was written", l.path, seq)
		}
	}
	return nil
}

func preadFull(of *fs.OpenFile, b []byte, off int64) error {
	for len(b) > 0 {
		n, err := of.Pread(nil, b, off)
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		b, off = b[n:], off+int64(n)
	}
	return nil
}

// writeRecord appends one record through the syscall layer.
func writeRecord(p *kernel.Proc, c *client, fd int, rec []byte) error {
	s := c.call()
	n, err := p.SysWrite(fd, rec)
	c.ret("write", s)
	if err == nil && n != len(rec) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(rec))
	}
	return err
}

func fsync(p *kernel.Proc, c *client, fd int) error {
	s := c.call()
	err := p.SysFsync(fd)
	c.ret("fsync", s)
	return err
}

// --- sd_append ---

const (
	appendSyncEvery = 4   // fsync after every 4th record
	appendRotate    = 512 // records per file (2 MiB) before the log rotates
)

// sdAppend: two closed-loop tasks, each appending 4 KiB records to its own
// FAT32 log with an fsync after every 4th record. A log rotates at 2 MiB
// and the one before the previous is unlinked, so the card never fills
// however fast the write path gets.
type sdAppend struct {
	prefix string
	logs   [2][]*appendLog // per task: the files still on the card
}

func (w *sdAppend) start(r *run) error {
	for i := range w.logs {
		r.goTask(fmt.Sprintf("append%d", i), func(p *kernel.Proc, c *client) error { return w.loop(r, p, c, i) })
	}
	return nil
}

func (w *sdAppend) loop(r *run, p *kernel.Proc, c *client, task int) error {
	rec := make([]byte, recSize)
	for gen := 0; ; gen++ {
		log := &appendLog{path: fmt.Sprintf("%s/%s%d%04d.log", sdMount, w.prefix, task, gen), key: key(1, uint64(task), uint64(gen))}
		fd, err := p.SysOpen(log.path, fs.OCreate|fs.OWrOnly|fs.OAppend)
		if err != nil {
			return err
		}
		w.logs[task] = append(w.logs[task], log)
		if old := w.logs[task]; len(old) > 2 {
			if err := p.SysUnlink(old[0].path); err != nil {
				return err
			}
			w.logs[task] = old[1:]
		}
		for log.written < appendRotate {
			if r.stop.Load() {
				return p.SysClose(fd)
			}
			log.record(rec, r.cfg.seed, log.written)
			t0 := c.begin("append")
			err := writeRecord(p, c, fd, rec)
			c.record(primary, t0, err, 0)
			c.end()
			if err != nil {
				return err
			}
			log.written++
			if log.written%appendSyncEvery != 0 {
				continue
			}
			t1 := c.begin("sync")
			err = fsync(p, c, fd)
			c.record(barrier, t1, err, int(log.written-log.synced)*recSize)
			c.end()
			if err != nil {
				return err
			}
			log.synced = log.written
		}
		if err := p.SysClose(fd); err != nil {
			return err
		}
	}
}

func (w *sdAppend) finish(*run) error { return nil }

func (w *sdAppend) verify(r *run, fat *fat32.FS) error {
	for _, logs := range w.logs {
		for _, log := range logs {
			if err := log.check(fat, r.cfg.seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- sd_read_mixed ---

const (
	readFiles     = 4
	readFileBytes = 1536 << 10 // 4 x 1.5 MiB = 6 MiB, 3x the 2 MiB sd0 cache
	pacedPeriod   = 20 * time.Millisecond
)

// sdReadMixed: one closed-loop task preads random 4 KiB blocks of four
// seeded files while one open-loop task appends a record and fsyncs it
// every 20 ms, timed from when it was due.
type sdReadMixed struct {
	prefix string
	log    *appendLog
}

func (w *sdReadMixed) file(i int) string { return fmt.Sprintf("%s/%sr%d.dat", sdMount, w.prefix, i) }

// block renders the seeded content of one 4 KiB block of a read file.
func (w *sdReadMixed) block(b []byte, seed uint64, file, blk int) {
	fill(b, key(seed, 2, uint64(file), uint64(blk)))
}

func (w *sdReadMixed) start(r *run) error {
	w.log = &appendLog{path: fmt.Sprintf("%s/%slog.dat", sdMount, w.prefix), key: key(3)}
	err := r.populate(func(p *kernel.Proc) error {
		chunk := make([]byte, 16*recSize)
		for f := 0; f < readFiles; f++ {
			fd, err := p.SysOpen(w.file(f), fs.OCreate|fs.OWrOnly|fs.OTrunc)
			if err != nil {
				return err
			}
			for blk := 0; blk < readFileBytes/recSize; blk += 16 {
				for i := 0; i < 16; i++ {
					w.block(chunk[i*recSize:(i+1)*recSize], r.cfg.seed, f, blk+i)
				}
				if _, err := p.SysWrite(fd, chunk); err != nil {
					return err
				}
				r.progress()
			}
			if err := p.SysClose(fd); err != nil {
				return err
			}
		}
		return p.SysSync()
	})
	if err != nil {
		return err
	}
	r.goTask("reader", w.reader)
	r.goTask("paced", w.paced)
	return nil
}

func (w *sdReadMixed) reader(p *kernel.Proc, c *client) error {
	r := c.r
	var fds [readFiles]int
	for i := range fds {
		fd, err := p.SysOpen(w.file(i), fs.ORdOnly)
		if err != nil {
			return err
		}
		fds[i] = fd
	}
	got, want := make([]byte, recSize), make([]byte, recSize)
	for !r.stop.Load() {
		f, blk := c.rng.IntN(readFiles), c.rng.IntN(readFileBytes/recSize)
		t0 := c.begin("read")
		s := c.call()
		n, err := p.SysPread(fds[f], got, int64(blk)*recSize)
		c.ret("pread", s)
		if err == nil {
			w.block(want, r.cfg.seed, f, blk)
			if n != recSize || !bytes.Equal(got, want) {
				r.checkf("pread %s block %d: got %d bytes not matching the seeded pattern", w.file(f), blk, n)
				err = errMismatch
			}
		}
		c.record(primary, t0, err, recSize)
		c.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sdReadMixed) paced(p *kernel.Proc, c *client) error {
	r := c.r
	fd, err := p.SysOpen(w.log.path, fs.OCreate|fs.OWrOnly|fs.OAppend)
	if err != nil {
		return err
	}
	rec := make([]byte, recSize)
	due := time.Now()
	for {
		due = due.Add(pacedPeriod)
		if d := time.Until(due); d > 0 {
			p.Task.SleepFor(d)
		}
		if r.stop.Load() {
			return p.SysClose(fd)
		}
		c.lateBy(time.Since(due))
		w.log.record(rec, r.cfg.seed, w.log.written)
		c.begin("paced")
		err := writeRecord(p, c, fd, rec)
		if err == nil {
			w.log.written++
			err = fsync(p, c, fd)
		}
		c.record(barrier, due, err, recSize)
		c.end()
		if err != nil {
			return err
		}
		w.log.synced = w.log.written
	}
}

func (w *sdReadMixed) finish(*run) error { return nil }

func (w *sdReadMixed) verify(r *run, fat *fat32.FS) error { return w.log.check(fat, r.cfg.seed) }

// --- rd_meta_churn ---

const (
	churnNames = 64   // namespace per task
	churnBytes = 1024 // written per cycle
	// churnTasks is one, not two: with two, one task's create can take the
	// inode number the other task's unlink is reclaiming while the dying
	// inode is still in xv6fs's inode table, since iput drops the table
	// lock across the reclaim. The new file inherits the stale reference,
	// so its own unlink skips the reclaim, and strict xfsck finds an
	// unreclaimed orphan after shutdown: 3 of 10 runs of 25 s failed.
	churnTasks = 1
)

// metaChurn: closed-loop tasks, each in its own directory on the xv6fs
// root, cycling over a seeded 64-name namespace: create, write 1 KiB,
// close, stat, rename, stat the old name (ENOENT), unlink. It has no
// barrier, so its sync_* metrics read 0.
type metaChurn struct {
	dirs  [churnTasks]string
	paths [churnTasks][]string
}

func newMetaChurn(r *run) *metaChurn {
	w := &metaChurn{}
	dirs := r.names(churnTasks, 6)
	for i := range w.dirs {
		w.dirs[i] = "/" + dirs[i]
		for _, n := range r.names(churnNames, 8) {
			w.paths[i] = append(w.paths[i], w.dirs[i]+"/"+n)
		}
	}
	return w
}

func (w *metaChurn) start(r *run) error {
	err := r.populate(func(p *kernel.Proc) error {
		for _, d := range w.dirs {
			if err := p.SysMkdir(d); err != nil {
				return err
			}
			r.progress()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range w.dirs {
		r.goTask(fmt.Sprintf("churn%d", i), func(p *kernel.Proc, c *client) error { return w.loop(p, c, i) })
	}
	return nil
}

func (w *metaChurn) loop(p *kernel.Proc, c *client, task int) error {
	data := make([]byte, churnBytes)
	paths := w.paths[task]
	for !c.r.stop.Load() {
		a := c.rng.IntN(churnNames)
		b := (a + 1 + c.rng.IntN(churnNames-1)) % churnNames
		fill(data, c.rng.Uint64())
		t0 := c.begin("cycle")
		err := w.cycle(p, c, paths[a], paths[b], data)
		c.record(primary, t0, err, churnBytes)
		c.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *metaChurn) cycle(p *kernel.Proc, c *client, from, to string, data []byte) error {
	s := c.call()
	fd, err := p.SysOpen(from, fs.OCreate|fs.OWrOnly|fs.OTrunc)
	c.ret("open", s)
	if err != nil {
		return err
	}
	err = writeRecord(p, c, fd, data)
	s = c.call()
	cerr := p.SysClose(fd)
	c.ret("close", s)
	if err = errors.Join(err, cerr); err != nil {
		return err
	}
	s = c.call()
	st, err := p.SysStat(from)
	c.ret("stat", s)
	if err != nil {
		return err
	}
	if st.Size != churnBytes {
		c.r.checkf("stat %s: size %d, want %d", from, st.Size, churnBytes)
		return errMismatch
	}
	s = c.call()
	err = p.SysRename(from, to)
	c.ret("rename", s)
	if err != nil {
		return err
	}
	s = c.call()
	_, err = p.SysStat(from)
	c.ret("stat", s)
	switch {
	case err == nil:
		c.r.checkf("stat %s resolves after its rename", from)
		return errMismatch
	case !errors.Is(err, fs.ErrNotFound):
		return err
	}
	s = c.call()
	err = p.SysUnlink(to)
	c.ret("unlink", s)
	return err
}

func (w *metaChurn) finish(*run) error { return nil }

func (w *metaChurn) verify(*run, *fat32.FS) error { return nil }

// --- net_echo ---

const (
	echoSmall     = 64
	echoBulk      = 16 << 10
	echoPool      = 16 // seeded payloads per connection
	echoBulkEvery = 5  // every 5th round trip goes over the bulk connection
)

// netEcho: chanserv on the kernel, and two peer connections each alone in
// its own room, so every frame is echoed back to its sender. Connection A
// carries 64 B frames (per-packet cost: the primary op), connection B
// 16 KiB frames (per-byte cost: the barrier, and mb_s). One closed-loop
// peer task drives both, four small round trips to one bulk, so the op
// mix is fixed. Chanserv guards every room with one server-wide semaphore
// mutex: with a task per connection, the bulk connection completed 1,305
// round trips to the small one's 107,179 in a 3 s run, then lost a
// wake-up and wedged.
type netEcho struct {
	rooms  [2]string
	frames [2][][]byte // encoded frames per connection
	socks  [2]*net.Socket
	done   chan int // chanserv's exit code
}

func newNetEcho(r *run) *netEcho {
	w := &netEcho{done: make(chan int, 1)}
	copy(w.rooms[:], r.names(2, 6))
	for i, size := range []int{echoSmall, echoBulk} {
		for j := 0; j < echoPool; j++ {
			payload := make([]byte, size)
			fill(payload, key(r.cfg.seed, 4, uint64(i), uint64(j)))
			w.frames[i] = append(w.frames[i], ulib.EncodeFrame(payload))
		}
	}
	return w
}

func (w *netEcho) start(r *run) error {
	r.sys.Kernel.Spawn("chanserv", 0, func(p *kernel.Proc, argv []string) int {
		code := chanserv.Main(p, argv)
		w.done <- code
		return code
	}, []string{"chanserv"})
	r.goPeer("peer", w.loop)
	return nil
}

// dial connects to chanserv, retrying until it listens, and joins a room.
func (w *netEcho) dial(t *sched.Task, c *client, conn int) (*net.Socket, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		sk := c.r.peer.stack.NewSocket()
		err := sk.Connect(t, net.Addr{Host: kernel.NetLocalHost, Port: chanserv.DefaultPort})
		if err == nil {
			return sk, writeAll(t, c, sk, ulib.EncodeFrame([]byte(w.rooms[conn])))
		}
		sk.Close(t)
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("connect: %w", err)
		}
		t.SleepFor(time.Millisecond)
	}
}

func (w *netEcho) loop(t *sched.Task, c *client) error {
	for i := range w.socks {
		sk, err := w.dial(t, c, i)
		if err != nil {
			return err
		}
		w.socks[i] = sk
	}
	var dec [2]ulib.FrameDecoder
	buf := make([]byte, 32<<10)
	for n := 1; !c.r.stop.Load(); n++ {
		conn, k, name := 0, primary, "echo"
		if n%echoBulkEvery == 0 {
			conn, k, name = 1, barrier, "bulk"
		}
		frame := w.frames[conn][c.rng.IntN(echoPool)]
		t0 := c.begin(name)
		err := writeAll(t, c, w.socks[conn], frame)
		if err == nil {
			var got []byte
			got, err = readFrame(t, c, w.socks[conn], &dec[conn], buf)
			if err == nil && !bytes.Equal(got, frame[ulib.FrameHdrSize:]) {
				c.r.checkf("%s: echoed %d-byte frame differs from the one sent", name, len(got))
				err = errMismatch
			}
		}
		c.record(k, t0, err, len(frame)-ulib.FrameHdrSize)
		c.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeAll(t *sched.Task, c *client, sk *net.Socket, b []byte) error {
	for len(b) > 0 {
		s := c.call()
		n, err := sk.Write(t, b)
		c.ret("peer.write", s)
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

func readFrame(t *sched.Task, c *client, sk *net.Socket, dec *ulib.FrameDecoder, buf []byte) ([]byte, error) {
	for {
		if f, err := dec.Next(); f != nil || err != nil {
			return f, err
		}
		s := c.call()
		n, err := sk.Read(t, buf)
		c.ret("peer.read", s)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		dec.Feed(buf[:n])
	}
}

// finish stops chanserv the way its clients do, and checks it exits 0.
func (w *netEcho) finish(r *run) error {
	if w.socks[0] == nil || w.socks[1] == nil {
		return errors.New("a peer connection never came up")
	}
	err := writeAll(nil, &client{r: r}, w.socks[0], ulib.EncodeFrame([]byte("/shutdown")))
	for _, sk := range w.socks {
		sk.Close(nil)
	}
	if err != nil {
		return err
	}
	select {
	case code := <-w.done:
		if code != 0 {
			return fmt.Errorf("chanserv exited %d", code)
		}
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("chanserv did not exit after /shutdown")
	}
}

func (w *netEcho) verify(*run, *fat32.FS) error { return nil }
