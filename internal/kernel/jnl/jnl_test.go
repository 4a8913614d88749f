package jnl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/jnl"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

const (
	blockSize = 1024
	devBlocks = 256
	logStart  = 200 // header block; slots follow
)

// newJournal builds a ramdisk, a daemonless cache over it, and a journal
// over the log region [logStart, logStart+logBlocks).
func newJournal(t *testing.T, logBlocks int) (*jnl.Journal, *bcache.Cache, *fs.Ramdisk) {
	t.Helper()
	rd := fs.NewRamdisk(blockSize, devBlocks)
	bc := bcache.NewWithOptions(rd, bcache.Options{
		Buffers:        64,
		Shards:         4,
		Readahead:      -1,
		FlushInterval:  time.Hour,
		WritebackRatio: -1,
	})
	return jnl.New(bc, logStart, logBlocks), bc, rd
}

// record runs one Begin/Record/End bracket that fills block lba with val.
func record(t *testing.T, j *jnl.Journal, bc *bcache.Cache, lba int, val byte) {
	t.Helper()
	j.Begin(nil)
	b, err := bc.Get(nil, lba)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Data {
		b.Data[i] = val
	}
	if err := j.Record(nil, b); err != nil {
		t.Fatal(err)
	}
	bc.Release(b)
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
}

// devBlock reads one block straight off the ramdisk.
func devBlock(t *testing.T, rd *fs.Ramdisk, lba int) []byte {
	t.Helper()
	b := make([]byte, blockSize)
	if err := rd.ReadBlocks(lba, 1, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// header decodes the on-disk log header: valid, count, homes.
func header(t *testing.T, rd *fs.Ramdisk) (bool, int, []int) {
	t.Helper()
	hb := devBlock(t, rd, logStart)
	magic := binary.LittleEndian.Uint32(hb[0:])
	count := int(binary.LittleEndian.Uint32(hb[4:]))
	homes := make([]int, count)
	for i := range homes {
		homes[i] = int(binary.LittleEndian.Uint32(hb[8+4*i:]))
	}
	return magic == jnl.Magic, count, homes
}

// TestCommitThenCheckpoint pins the write-ahead discipline on the device
// itself: after commit the log (slots + header) is durable but the home
// block is untouched; after checkpoint the home is durable and the header
// is invalidated.
func TestCommitThenCheckpoint(t *testing.T) {
	j, bc, rd := newJournal(t, 8)
	record(t, j, bc, 10, 0xAB)

	if s := j.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d, want 1", s.Commits)
	}
	// Commit point reached: header names home 10, slot 0 holds the data.
	if ok, count, homes := header(t, rd); !ok || count != 1 || homes[0] != 10 {
		t.Fatalf("header after commit: valid=%v count=%d homes=%v", ok, count, homes)
	}
	if slot := devBlock(t, rd, logStart+1); slot[0] != 0xAB {
		t.Fatal("slot block not durable after commit")
	}
	// Write-ahead: home must NOT have been written yet.
	if home := devBlock(t, rd, 10); home[0] != 0 {
		t.Fatal("home block written before checkpoint")
	}

	j.Checkpoint(nil)
	if s := j.Stats(); s.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", s.Checkpoints)
	}
	if home := devBlock(t, rd, 10); home[0] != 0xAB {
		t.Fatal("home block not durable after checkpoint")
	}
	if _, count, _ := header(t, rd); count != 0 {
		t.Fatalf("header not invalidated after checkpoint (count %d)", count)
	}
}

// remount builds a fresh cache of the given size over rd — what a crash
// leaves behind: the old cache's dirty buffers are lost — and a journal
// over the same log region.
func remount(rd *fs.Ramdisk, buffers, logBlocks int) *jnl.Journal {
	bc := bcache.NewWithOptions(rd, bcache.Options{
		Buffers: buffers, Shards: 4, Readahead: -1,
		FlushInterval: time.Hour, WritebackRatio: -1,
	})
	return jnl.New(bc, logStart, logBlocks)
}

// TestRecoverReplaysCommitted pins lazy checkpointing and multi-
// transaction replay: three commits append behind one another without a
// checkpoint, the header names every occupied slot in order, and after a
// crash recovery replays them all in slot order — a block logged twice
// ends up with its later copy.
func TestRecoverReplaysCommitted(t *testing.T) {
	j, bc, rd := newJournal(t, 8)
	record(t, j, bc, 10, 0xCD)
	record(t, j, bc, 11, 0xEF)
	record(t, j, bc, 10, 0x12)
	if s := j.Stats(); s.Commits != 3 || s.Checkpoints != 0 {
		t.Fatalf("commits/checkpoints = %d/%d, want 3/0", s.Commits, s.Checkpoints)
	}
	ok, count, homes := header(t, rd)
	if !ok || count != 3 || homes[0] != 10 || homes[1] != 11 || homes[2] != 10 {
		t.Fatalf("header = valid %v, %d %v; want all three transactions' slots", ok, count, homes)
	}
	if home := devBlock(t, rd, 10); home[0] != 0 {
		t.Fatal("home block written before any checkpoint")
	}
	// Crash: abandon bc and j. Remount over the raw device.
	j2 := remount(rd, 64, 8)
	n, err := j2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recovered %d slots, want 3", n)
	}
	if home := devBlock(t, rd, 10); home[0] != 0x12 {
		t.Fatalf("block 10 = %#x after replay, want the later copy 0x12", home[0])
	}
	if home := devBlock(t, rd, 11); home[0] != 0xEF {
		t.Fatal("recovery did not install block 11 home")
	}
	if _, count, _ := header(t, rd); count != 0 {
		t.Fatal("recovery did not invalidate the header")
	}
	// Idempotent: a second Recover finds nothing.
	if n, err := j2.Recover(nil); err != nil || n != 0 {
		t.Fatalf("second Recover = %d, %v; want 0, nil", n, err)
	}
}

// TestRecoverUnderSmallerCache pins that recovery is bounded by the disk
// geometry, not by the mounting cache: a log filled under a large cache
// must replay under a cache whose batch limit is far below its length.
func TestRecoverUnderSmallerCache(t *testing.T) {
	const logBlocks = 40
	j, bc, rd := newJournal(t, logBlocks)
	const blocks = 30
	for lba := 10; lba < 10+blocks; lba++ {
		record(t, j, bc, lba, byte(lba))
	}
	if _, count, _ := header(t, rd); count != blocks {
		t.Fatalf("header names %d slots, want %d", count, blocks)
	}
	j2 := remount(rd, 16, logBlocks) // batches capped at 8 slots
	n, err := j2.Recover(nil)
	if err != nil {
		t.Fatalf("Recover under a small cache: %v", err)
	}
	if n != blocks {
		t.Fatalf("recovered %d slots, want %d", n, blocks)
	}
	for lba := 10; lba < 10+blocks; lba++ {
		if got := devBlock(t, rd, lba); got[0] != byte(lba) {
			t.Fatalf("block %d = %#x after replay, want %#x", lba, got[0], byte(lba))
		}
	}
}

// TestAbsorption pins that re-recording a block costs no extra slot: the
// log holds the block's final content once.
func TestAbsorption(t *testing.T) {
	j, bc, rd := newJournal(t, 8)
	j.Begin(nil)
	for pass := 0; pass < 3; pass++ {
		b, err := bc.Get(nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		b.Data[0] = byte(pass + 1)
		if err := j.Record(nil, b); err != nil {
			t.Fatal(err)
		}
		bc.Release(b)
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
	s := j.Stats()
	if s.Absorbed != 2 {
		t.Fatalf("absorbed = %d, want 2", s.Absorbed)
	}
	if _, count, _ := header(t, rd); count != 1 {
		t.Fatalf("header count = %d, want 1 (one slot for three records)", count)
	}
}

// TestGroupCommit pins that overlapping brackets commit as ONE
// transaction: the first End while another op is open must not commit.
func TestGroupCommit(t *testing.T) {
	j, bc, rd := newJournal(t, 32)
	j.Begin(nil)
	j.Begin(nil)
	for i, lba := range []int{10, 11} {
		b, err := bc.Get(nil, lba)
		if err != nil {
			t.Fatal(err)
		}
		b.Data[0] = byte(i + 1)
		if err := j.Record(nil, b); err != nil {
			t.Fatal(err)
		}
		bc.Release(b)
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Commits != 0 {
		t.Fatal("committed with an operation still open")
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d, want 1 (group commit)", s.Commits)
	}
	if _, count, homes := header(t, rd); count != 2 || homes[0] != 10 || homes[1] != 11 {
		t.Fatalf("header = %d %v, want both ops' blocks in one transaction", count, homes)
	}
}

// TestErrTooBig pins the overflow guard: one bracket recording more
// distinct blocks than the log has slots is a filesystem bug, reported
// not deadlocked.
func TestErrTooBig(t *testing.T) {
	j, bc, _ := newJournal(t, 5) // 4 slots
	if j.Slots() != 4 {
		t.Fatalf("slots = %d, want 4", j.Slots())
	}
	j.Begin(nil)
	var got error
	for lba := 10; lba < 16; lba++ {
		b, err := bc.Get(nil, lba)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Record(nil, b)
		bc.Release(b)
		if err != nil {
			got = err
			break
		}
	}
	if got != jnl.ErrTooBig {
		t.Fatalf("oversized op returned %v, want ErrTooBig", got)
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
}

// TestInstallFromLog pins the write-behind wrinkle: when a full log
// forces a checkpoint while the open batch has re-frozen a logged block,
// the block's committed content must be installed home FROM THE LOG SLOT
// — the cache buffer holds the open batch's uncommitted bytes, and
// flushing it would leak them ahead of commit.
func TestInstallFromLog(t *testing.T) {
	j, bc, rd := newJournal(t, 5) // 4 slots; one 4-block batch fills them
	record(t, j, bc, 10, 0x11)    // txn 1 occupies slot 0

	// Txn 2 re-records block 10 and three more: 1+4 slots do not fit, so
	// its commit must checkpoint txn 1 first, with block 10 frozen.
	j.Begin(nil)
	for lba := 10; lba < 14; lba++ {
		b, err := bc.Get(nil, lba)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Data {
			b.Data[i] = 0x22
		}
		if err := j.Record(nil, b); err != nil {
			t.Fatal(err)
		}
		bc.Release(b)
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}

	s := j.Stats()
	if s.Commits != 2 || s.Checkpoints != 1 {
		t.Fatalf("commits/checkpoints = %d/%d, want 2/1 (a full log forces one)", s.Commits, s.Checkpoints)
	}
	if s.Installs != 1 {
		t.Fatalf("installs = %d, want 1", s.Installs)
	}
	// At this instant the durable home holds exactly txn 1's content, and
	// the log holds txn 2 alone, from slot 0.
	if home := devBlock(t, rd, 10); home[0] != 0x11 {
		t.Fatalf("home byte = %#x, want txn 1's 0x11", home[0])
	}
	if _, count, homes := header(t, rd); count != 4 || homes[0] != 10 {
		t.Fatalf("header = %d %v, want txn 2's four blocks from slot 0", count, homes)
	}
	if err := j.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if home := devBlock(t, rd, 10); home[0] != 0x22 {
		t.Fatalf("home byte = %#x, want txn 2's 0x22 after checkpoint", home[0])
	}
}

// TestRevokeUntilLogEmpty pins the revoke rule: a freed block stays
// quarantined while a logged transaction names it — until the checkpoint
// empties the log — while a freed block the log never named is reusable
// as soon as its freeing transaction commits.
func TestRevokeUntilLogEmpty(t *testing.T) {
	j, bc, _ := newJournal(t, 16)
	record(t, j, bc, 50, 0xD1) // a directory block, now in the log

	j.Begin(nil)
	j.Revoke(50)              // the directory is removed...
	j.Revoke(70)              // ...along with a data block the log never held
	b, err := bc.Get(nil, 60) // the bitmap block recording both frees
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(nil, b); err != nil {
		t.Fatal(err)
	}
	bc.Release(b)
	if !j.Revoked(50) || !j.Revoked(70) {
		t.Fatal("blocks freed by the open batch are reusable before it commits")
	}
	if err := j.End(nil); err != nil {
		t.Fatal(err)
	}
	if !j.Revoked(50) {
		t.Fatal("freed block reusable while a logged transaction still names it")
	}
	if j.Revoked(70) {
		t.Fatal("freed block the log never named still quarantined after commit")
	}
	if err := j.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if j.Revoked(50) {
		t.Fatal("freed block still quarantined after the checkpoint emptied the log")
	}
}

// TestStatsDuringCommits reads Stats while commits run; under -race it
// pins that the counters are safe to snapshot at any time.
func TestStatsDuringCommits(t *testing.T) {
	j, bc, _ := newJournal(t, 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if s := j.Stats(); s.Checkpoints > s.Commits {
				t.Errorf("more checkpoints than commits: %+v", s)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 200; i++ {
		record(t, j, bc, 10+i%20, byte(i))
	}
	close(stop)
	<-done
	if s := j.Stats(); s.Commits != 200 {
		t.Fatalf("commits = %d, want 200", s.Commits)
	}
}

// TestSyncIsABarrier pins Sync's contract: when it returns, everything
// that Ended before the call is durable — in the log or at home — and a
// fresh mount's recovery observes it.
func TestSyncIsABarrier(t *testing.T) {
	j, bc, rd := newJournal(t, 8)
	record(t, j, bc, 12, 0x77)
	if err := j.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Sync does not force the checkpoint — the log may still own the
	// bytes — but log-or-home, the content must be recoverable.
	if _, err := remount(rd, 64, 8).Recover(nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x77}, blockSize)
	if got := devBlock(t, rd, 12); !bytes.Equal(got, want) {
		t.Fatal("content recorded before Sync not recoverable after it")
	}
}

// TestRecordOutsideBracketFails pins the bracket discipline.
func TestRecordOutsideBracketFails(t *testing.T) {
	j, bc, _ := newJournal(t, 8)
	b, err := bc.Get(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Release(b)
	if err := j.Record(nil, b); err == nil {
		t.Fatal("Record outside Begin/End succeeded")
	}
}

// commitAllocBudget bounds the heap allocations of one single-block
// Begin/Record/End commit over a ramdisk cache. The slot run and the
// header go out of journal-owned buffers as two queue writes, and each
// finds the synchronous queue idle, so blkq issues it directly with no
// request or command object: nothing is allocated. Dispatching both
// writes through the elevator cost 6; staging the log through cache
// buffers cost 22.
const commitAllocBudget = 0

// TestCommitAllocs is a host-independent guard on commit cost: the
// allocation count of a commit does not move with machine load the way
// its time does.
func TestCommitAllocs(t *testing.T) {
	j, bc, _ := newJournal(t, 55)
	// 1 warm-up + 50 measured commits stay inside the 54 slots, so no
	// checkpoint lands in the measurement.
	allocs := testing.AllocsPerRun(50, func() { record(t, j, bc, 10, 0xCD) })
	if s := j.Stats(); s.Commits != 51 || s.Checkpoints != 0 {
		t.Fatalf("commits=%d checkpoints=%d, want 51 and 0", s.Commits, s.Checkpoints)
	}
	t.Logf("one-block commit: %.0f allocs", allocs)
	if allocs > commitAllocBudget {
		t.Fatalf("one-block commit allocates %.0f objects, want <= %d", allocs, commitAllocBudget)
	}
}

// TestFailedLogWrites fails each of the commit's two queue writes in turn
// — the slot run, then the header — on a queue that does not retry. The
// failing End and the next Sync both report the device error, the batch
// stays frozen (its home is never written), and after a crash the remount
// replays only the transaction committed before the failure, leaving a
// volume xfsck passes.
func TestFailedLogWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(logStart int) int // the LBA that turns bad before the second commit
	}{
		{"slots", func(logStart int) int { return logStart + 2 }}, // slot 1: the second commit's slot run
		{"header", func(logStart int) int { return logStart }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd := fs.NewRamdisk(xv6fs.BlockSize, 1024)
			if err := xv6fs.Mkfs(rd, 64); err != nil {
				t.Fatal(err)
			}
			// xv6fs.Superblock: Size at byte 4, LogStart at 24, LogSize at 28.
			sb := devBlock(t, rd, 0)
			size := int(binary.LittleEndian.Uint32(sb[4:]))
			logStart := int(binary.LittleEndian.Uint32(sb[24:]))
			logSize := int(binary.LittleEndian.Uint32(sb[28:]))
			// Two free data blocks at the end of the volume.
			a, b := size-2, size-1

			newCache := func(dev fs.BlockDevice) *bcache.Cache {
				return bcache.NewWithOptions(dev, bcache.Options{
					Buffers: 64, Shards: 4, Readahead: -1,
					FlushInterval: time.Hour, WritebackRatio: -1,
				})
			}
			fd := hw.NewFaultDisk(rd, hw.FaultPlan{Seed: 1})
			bc := newCache(blkq.New(fd, blkq.Options{PlugDelay: -1, MaxRetries: -1}))
			j := jnl.New(bc, logStart, logSize)
			record(t, j, bc, a, 0xA1)

			fd.AddBadSector(tc.bad(logStart))
			j.Begin(nil)
			buf, err := bc.Get(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf.Data {
				buf.Data[i] = 0xB2
			}
			if err := j.Record(nil, buf); err != nil {
				t.Fatal(err)
			}
			bc.Release(buf)
			if err := j.End(nil); !errors.Is(err, hw.ErrBadSector) {
				t.Fatalf("End = %v, want the device's %v", err, hw.ErrBadSector)
			}
			if err := j.Sync(nil); !errors.Is(err, hw.ErrBadSector) {
				t.Fatalf("Sync = %v, want the device's %v", err, hw.ErrBadSector)
			}
			frozen, err := bc.Get(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bc.Frozen(frozen) || frozen.Data[0] != 0xB2 {
				t.Fatalf("failed batch left the cache: frozen=%v data=%#x", bc.Frozen(frozen), frozen.Data[0])
			}
			bc.Release(frozen)
			if err := bc.Flush(nil); err != nil {
				t.Fatal(err)
			}
			if home := devBlock(t, rd, b); home[0] == 0xB2 {
				t.Fatal("uncommitted block reached its home")
			}

			// Crash: a fresh cache and journal over the surviving media.
			n, err := jnl.New(newCache(rd), logStart, logSize).Recover(nil)
			if err != nil || n != 1 {
				t.Fatalf("Recover = %d, %v; want the 1 committed slot", n, err)
			}
			if home := devBlock(t, rd, a); home[0] != 0xA1 {
				t.Fatalf("committed block not replayed: %#x", home[0])
			}
			if home := devBlock(t, rd, b); home[0] == 0xB2 {
				t.Fatal("the failed transaction was replayed")
			}
			rep, err := xfsck.Check(rd, xfsck.Strict)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("xfsck after recovery: %v", rep.Errors)
			}
		})
	}
}
