package fat32

import (
	"fmt"
	"sync"
	"testing"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
)

// BenchmarkParallelFiles measures N workers streaming N distinct files on
// ONE FAT32 mount.
//
//   - "io": the SD card's latency model is on (scaled down) and the cache
//     is deliberately tiny, so every read pays simulated wire time — slept
//     outside the card's lock, like real hardware. Device waits overlap
//     iff the filesystem's locking lets them: the volume-lock baseline
//     pins this at ~1× regardless of workers, per-file pseudo-inode locks
//     scale it with workers even on one CPU.
//   - "mem": warm cache, latency off; pure lock+memcpy cost (scales only
//     with real cores).
func BenchmarkParallelFiles(b *testing.B) {
	const fileSize = 256 << 10
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("io/workers=%d", workers), func(b *testing.B) {
			sd := hw.NewSDCard(16384, hw.NewIRQController(1))
			sd.SetLatencyScale(0)
			dev := sdDev{sd}
			if err := Mkfs(dev); err != nil {
				b.Fatal(err)
			}
			// 256 buffers against a 256 KB (512-sector) sequential scan
			// per file: LRU evicts each block before reuse, so every pass
			// misses in full and pays simulated wire time — for every
			// worker count, keeping the numbers comparable. Scale 0.2
			// makes a 16 KB range command ~2.5 ms, large against Go timer
			// slack, so sleep jitter stays noise.
			f, err := MountWith(dev, nil, bcache.Options{Buffers: 256, Shards: 8, Readahead: -1})
			if err != nil {
				b.Fatal(err)
			}
			setupParallelFiles(b, f, workers, fileSize)
			sd.SetLatencyScale(0.2) // ~76 µs per sector on the wire
			runParallelReads(b, f, workers, fileSize)
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mem/workers=%d", workers), func(b *testing.B) {
			sd := hw.NewSDCard(16384, hw.NewIRQController(1))
			sd.SetLatencyScale(0)
			dev := sdDev{sd}
			if err := Mkfs(dev); err != nil {
				b.Fatal(err)
			}
			f, err := Mount(dev, nil)
			if err != nil {
				b.Fatal(err)
			}
			setupParallelFiles(b, f, workers, fileSize)
			runParallelReads(b, f, workers, fileSize)
		})
	}
}

var benchFiles []*fs.OpenFile

func setupParallelFiles(b *testing.B, f *FS, workers, fileSize int) {
	benchFiles = make([]*fs.OpenFile, workers)
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for w := range benchFiles {
		fl, err := openOF(f, fmt.Sprintf("/w%d.bin", w), fs.OCreate|fs.ORdWr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fl.Write(nil, data); err != nil {
			b.Fatal(err)
		}
		benchFiles[w] = fl
	}
	// Flush setup writes so the timed loop never pays their writeback.
	if err := f.Sync(nil); err != nil {
		b.Fatal(err)
	}
}

func runParallelReads(b *testing.B, f *FS, workers, fileSize int) {
	b.SetBytes(int64(workers) * int64(fileSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(fl *fs.OpenFile) {
				defer wg.Done()
				sk := fl
				sk.Seek(nil, 0, fs.SeekSet)
				// 16 KB chunks: claims stay small enough for every
				// worker's device commands to stay in flight at once.
				buf := make([]byte, 16<<10)
				for got := 0; got < fileSize; {
					n, err := fl.Read(nil, buf)
					if err != nil || n == 0 {
						b.Error(err)
						return
					}
					got += n
				}
			}(benchFiles[w])
		}
		wg.Wait()
	}
}

// --- §5.2: cached range IO vs the old direct-device bypass ---
//
// The bypass was the pre-sharded-cache fast path: the file's contiguous
// cluster runs sent as range commands straight to the SD card, no
// caching. It survives only here, as the baseline the cached path is
// measured against: the cache issues the same coalesced commands on a
// cold pass and serves repeats from memory, so it must be at parity or
// better on every shape these benchmarks measure.

func BenchmarkRangeRead256KSharded(b *testing.B)  { benchRange256K(b, false, false) }
func BenchmarkRangeRead256KBypass(b *testing.B)   { benchRange256K(b, false, true) }
func BenchmarkRangeWrite256KSharded(b *testing.B) { benchRange256K(b, true, false) }
func BenchmarkRangeWrite256KBypass(b *testing.B)  { benchRange256K(b, true, true) }

// benchRange256K moves one 256 KiB file per iteration at the SD card's
// full latency model, through the mount's cache or, bypassing it, as the
// file's clusterRuns issued at the raw card.
func benchRange256K(b *testing.B, write, bypass bool) {
	const fileSize = 256 << 10
	sd := hw.NewSDCard(16384, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		b.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		b.Fatal(err)
	}
	ops, err := f.Open(nil, "/range.bin", fs.OCreate|fs.ORdWr)
	if err != nil {
		b.Fatal(err)
	}
	fl := fs.NewOpenFile(ops, fs.ORdWr)
	buf := make([]byte, fileSize)
	if _, err := fl.Write(nil, buf); err != nil {
		b.Fatal(err)
	}
	if err := f.Sync(nil); err != nil {
		b.Fatal(err)
	}
	clusters, err := f.chain(nil, ops.(*file).pi.firstCluster)
	if err != nil {
		b.Fatal(err)
	}
	sd.SetLatencyScale(1)
	b.SetBytes(fileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case bypass:
			// The file is whole clusters, so every run is aligned.
			_, err = f.clusterRuns(clusters, 0, fileSize, nil, func(ci, run int) error {
				sector, n := f.clusterSector(clusters[ci]), run*SectorsPerCluster
				p := buf[ci*ClusterSize : (ci+run)*ClusterSize]
				if write {
					return dev.WriteBlocks(sector, n, p)
				}
				return dev.ReadBlocks(sector, n, p)
			})
		case write:
			_, err = fl.Pwrite(nil, buf, 0)
		default:
			_, err = fl.Pread(nil, buf, 0)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fl.Close(nil)
}
