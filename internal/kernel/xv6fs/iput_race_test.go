package xv6fs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

// TestChurnReusesInumsCleanly has two tasks churn create/write/close/unlink,
// each in its own directory, so every unlink's reclaim frees an inum the
// other task's next create may allocate at once. A dying inode that stayed
// reachable in the inode table after its slot was freed let that create
// take a second reference to it; the new file's unlink then skipped its
// reclaim and left an orphan, which strict xfsck reports.
func TestChurnReusesInumsCleanly(t *testing.T) {
	const tasks = 2
	const rounds = 400
	rd := fs.NewRamdisk(xv6fs.BlockSize, 2048)
	if err := xv6fs.Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	fsys, err := xv6fs.Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	var wg sync.WaitGroup
	for w := 0; w < tasks; w++ {
		dir := fmt.Sprintf("/t%d", w)
		if err := fsys.Mkdir(nil, dir); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("%s/f%d", dir, r%8)
				ops, err := fsys.Open(nil, name, fs.OCreate|fs.OWrOnly)
				if err != nil {
					t.Errorf("%s: create: %v", name, err)
					return
				}
				fl := fs.NewOpenFile(ops, fs.OCreate|fs.OWrOnly)
				if _, err := fl.Write(nil, payload); err != nil {
					t.Errorf("%s: write: %v", name, err)
					return
				}
				fl.Close(nil)
				if err := fsys.Unlink(nil, name); err != nil {
					t.Errorf("%s: unlink: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := fsys.Sync(nil); err != nil {
		t.Fatal(err)
	}
	rep, err := xfsck.Check(rd, xfsck.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("strict xfsck after churn: %v\n%s", rep, strings.Join(rep.Errors, "\n"))
	}
}
