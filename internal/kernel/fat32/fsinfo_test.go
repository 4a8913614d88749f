package fat32

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
)

// TestFSInfoPersistedAcrossMounts: Sync writes the FSInfo sector (free
// count + next-free hint) and a fresh mount reads it back, so the next
// allocation scan continues where the last mount stopped instead of
// restarting at cluster 2.
func TestFSInfoPersistedAcrossMounts(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh volume's FSInfo comes straight from Mkfs.
	free0, next0 := f.FSInfo(nil)
	if next0 != rootCluster+1 {
		t.Fatalf("fresh next-free hint = %d, want %d", next0, rootCluster+1)
	}
	scan, err := f.FreeClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if free0 != scan {
		t.Fatalf("mkfs FSInfo free=%d, scan says %d", free0, scan)
	}

	fl, err := openOF(f, "/grow.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, bytes.Repeat([]byte{7}, 5*ClusterSize)); err != nil {
		t.Fatal(err)
	}
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	wantFree, err := f.FreeClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, wantNext := f.FSInfo(nil)

	f2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotFree, gotNext := f2.FSInfo(nil)
	if gotFree != wantFree || gotNext != wantNext {
		t.Fatalf("remount FSInfo = (%d, %d), want (%d, %d)", gotFree, gotNext, wantFree, wantNext)
	}
	// And the persisted count is the truth, not a stale copy.
	scan2, err := f2.FreeClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotFree != scan2 {
		t.Fatalf("persisted free=%d but FAT scan says %d", gotFree, scan2)
	}
}

// TestFSInfoInvalidIgnored: a volume whose FSInfo sector is garbage (or a
// pre-FSInfo image) mounts fine and falls back to scan-from-the-start.
func TestFSInfoInvalidIgnored(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xA5}, SectorSize)
	if err := dev.WriteBlocks(fsInfoSector, 1, junk); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	free, next := f.FSInfo(nil)
	if free != -1 || next != rootCluster {
		t.Fatalf("invalid FSInfo gave (%d, %d), want (-1, %d)", free, next, rootCluster)
	}
	// The volume still allocates and syncs — and Sync repairs the sector.
	fl, err := openOF(f, "/a.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	fl.Write(nil, []byte("x"))
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if free2, _ := f2.FSInfo(nil); free2 < 0 {
		t.Fatal("Sync did not repair the FSInfo sector")
	}
}

// TestDaemonWritebackErrorReachesSync is the filesystem-level async
// error-propagation contract: a file's data is written (landing dirty in
// the cache), hw.ErrSDInjected fires inside a DAEMON writeback pass, and
// the error must surface at the owner's next Sync — not be silently
// dropped — while the data survives for the successful retry.
func TestDaemonWritebackErrorReachesSync(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := MountWith(noRetryQueue(dev), nil, bcache.Options{
		Buffers: 256, Shards: 4, Readahead: -1,
		FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := f.Cache()
	go c.RunDaemon(nil, nil)
	defer c.StopDaemon()

	payload := bytes.Repeat([]byte{0xEE}, 3*ClusterSize)
	fl, err := openOF(f, "/victim.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, payload); err != nil {
		t.Fatal(err) // write-behind: no device error possible here
	}
	sd.InjectErrors(1)
	// Rewrite the head of the file: every touched sector is already
	// cached, so this dirties data without any device traffic — there is
	// guaranteed dirty state AFTER the injector armed, whatever the
	// daemon managed to flush before.
	if _, err := fl.Seek(nil, 0, fs.SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, payload[:ClusterSize]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.WritebackErrPending() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never hit the injected error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Sync(nil); !errors.Is(err, hw.ErrSDInjected) {
		t.Fatalf("Sync after daemon write error = %v, want ErrSDInjected", err)
	}
	// The retry happened (or happens now): after a clean Sync the data is
	// durable and intact on a fresh mount.
	if err := f.Sync(nil); err != nil {
		t.Fatalf("second Sync = %v, want nil", err)
	}
	fl.Close(nil)
	f2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := openOF(f2, "/victim.bin", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	read := 0
	for read < len(got) {
		n, err := rf.Read(nil, got[read:])
		if err != nil || n == 0 {
			t.Fatalf("read back: %d, %v", n, err)
		}
		read += n
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across the failed daemon writeback")
	}
}
