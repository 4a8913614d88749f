package experiments

import (
	"crypto/md5"
	"math"
	"sort"
	"time"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/mm"
	"protosim/internal/user/ulib"
)

// fig9Bench is one microbenchmark; run returns per-op nanoseconds.
type fig9Bench struct {
	name string
	run  func(p *kernel.Proc, sys *core.System) (float64, error)
}

// timeOps measures fn over n iterations.
func timeOps(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// fig9Benches mirrors Figure 9's x-axis: getpid, fork, sbrk, ipc, malloc,
// memset, md5sum, qsort, ramfs r/w, diskfs r/w.
func fig9Benches() []fig9Bench {
	return []fig9Bench{
		{"getpid", func(p *kernel.Proc, _ *core.System) (float64, error) {
			// One 100 000-call pass is about 1.5 ms of wall time, so a
			// single host preemption can triple it: report the fastest of
			// several passes.
			best := math.Inf(1)
			for pass := 0; pass < 5; pass++ {
				ns, err := timeOps(100000, func(int) error { p.SysGetPID(); return nil })
				if err != nil {
					return 0, err
				}
				best = math.Min(best, ns)
			}
			return best, nil
		}},
		{"fork", func(p *kernel.Proc, _ *core.System) (float64, error) {
			// Give the process a meaty image so fork has pages to copy —
			// this is where eager copy vs COW separates (paper: 17×).
			if _, err := p.SysSbrk(256 * mm.PageSize); err != nil {
				return 0, err
			}
			// Time only the fork() call: the child hand-off and wait()
			// are scheduler latency, identical across modes, and noisy
			// enough to swamp the copy-vs-COW difference Fig 9 plots.
			const n = 40
			var forkNS int64
			for i := 0; i < n; i++ {
				start := make(chan struct{})
				t0 := time.Now()
				_, err := p.SysFork(func(c *kernel.Proc) { <-start })
				forkNS += time.Since(t0).Nanoseconds()
				if err != nil {
					return 0, err
				}
				close(start)
				if _, _, err := p.SysWait(); err != nil {
					return 0, err
				}
			}
			return float64(forkNS) / n, nil
		}},
		{"sbrk", func(p *kernel.Proc, _ *core.System) (float64, error) {
			return timeOps(2000, func(int) error {
				_, err := p.SysSbrk(mm.PageSize)
				return err
			})
		}},
		{"ipc", func(p *kernel.Proc, _ *core.System) (float64, error) {
			r1, w1, err := p.SysPipe()
			if err != nil {
				return 0, err
			}
			r2, w2, err := p.SysPipe()
			if err != nil {
				return 0, err
			}
			const rounds = 1500
			// The child echoes exactly `rounds` bytes then exits; a fork
			// shares both pipe ends, so the parent closing its own fds
			// would never EOF the child's read.
			p.SysFork(func(c *kernel.Proc) {
				b := make([]byte, 1)
				for i := 0; i < rounds; i++ {
					if _, err := c.SysRead(r1, b); err != nil {
						return
					}
					if _, err := c.SysWrite(w2, b); err != nil {
						return
					}
				}
			})
			b := []byte{1}
			ns, err := timeOps(rounds, func(int) error {
				if _, err := p.SysWrite(w1, b); err != nil {
					return err
				}
				_, err := p.SysRead(r2, b)
				return err
			})
			p.SysWait()
			return ns / 2, err // one-way
		}},
		{"malloc", func(p *kernel.Proc, _ *core.System) (float64, error) {
			a := ulib.NewAlloc(p)
			ptrs := make([]uint64, 0, 512)
			return timeOps(5000, func(i int) error {
				va, err := a.Malloc(64 + i%256)
				if err != nil {
					return err
				}
				ptrs = append(ptrs, va)
				if len(ptrs) >= 512 {
					for _, q := range ptrs {
						a.Free(q)
					}
					ptrs = ptrs[:0]
				}
				return nil
			})
		}},
		{"memset", func(p *kernel.Proc, _ *core.System) (float64, error) {
			// User-space memset through the page tables (64 KB per op).
			old, err := p.SysSbrk(16 * mm.PageSize)
			if err != nil {
				return 0, err
			}
			buf := make([]byte, 16*mm.PageSize)
			for i := range buf {
				buf[i] = 0xAB
			}
			return timeOps(300, func(int) error {
				return p.AddressSpace().WriteAt(old, buf)
			})
		}},
		{"md5sum", func(p *kernel.Proc, _ *core.System) (float64, error) {
			data := make([]byte, 256<<10)
			for i := range data {
				data[i] = byte(i)
			}
			return timeOps(50, func(int) error {
				md5.Sum(data)
				p.Checkpoint()
				return nil
			})
		}},
		{"qsort", func(p *kernel.Proc, _ *core.System) (float64, error) {
			return timeOps(50, func(int) error {
				vals := make([]int, 20000)
				x := 12345
				for i := range vals {
					x = x*1103515245 + 12347
					vals[i] = x
				}
				sort.Ints(vals)
				p.Checkpoint()
				return nil
			})
		}},
		{"ramfs/w", func(p *kernel.Proc, _ *core.System) (float64, error) {
			buf := make([]byte, 16<<10)
			return timeOps(40, func(i int) error {
				fd, err := p.SysOpen("/rfw.bin", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					return err
				}
				for k := 0; k < 8; k++ {
					if _, err := p.SysWrite(fd, buf); err != nil {
						return err
					}
				}
				p.SysClose(fd)
				return p.SysUnlink("/rfw.bin")
			})
		}},
		{"ramfs/r", func(p *kernel.Proc, _ *core.System) (float64, error) {
			buf := make([]byte, 16<<10)
			fd, err := p.SysOpen("/rfr.bin", fs.OCreate|fs.OWrOnly)
			if err != nil {
				return 0, err
			}
			for k := 0; k < 8; k++ {
				p.SysWrite(fd, buf)
			}
			p.SysClose(fd)
			return timeOps(60, func(int) error {
				fd, err := p.SysOpen("/rfr.bin", fs.ORdOnly)
				if err != nil {
					return err
				}
				for {
					n, err := p.SysRead(fd, buf)
					if err != nil {
						return err
					}
					if n == 0 {
						break
					}
				}
				return p.SysClose(fd)
			})
		}},
		{"diskfs/w", func(p *kernel.Proc, _ *core.System) (float64, error) {
			buf := make([]byte, 64<<10)
			return timeOps(6, func(int) error {
				fd, err := p.SysOpen("/d/dfw.bin", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					return err
				}
				for k := 0; k < 4; k++ {
					if _, err := p.SysWrite(fd, buf); err != nil {
						return err
					}
				}
				p.SysClose(fd)
				return p.SysUnlink("/d/dfw.bin")
			})
		}},
		{"diskfs/r", func(p *kernel.Proc, _ *core.System) (float64, error) {
			buf := make([]byte, 64<<10)
			fd, err := p.SysOpen("/d/dfr.bin", fs.OCreate|fs.OWrOnly)
			if err != nil {
				return 0, err
			}
			for k := 0; k < 4; k++ {
				if _, err := p.SysWrite(fd, buf); err != nil {
					return 0, err
				}
			}
			p.SysClose(fd)
			return timeOps(8, func(int) error {
				fd, err := p.SysOpen("/d/dfr.bin", fs.ORdOnly)
				if err != nil {
					return err
				}
				for {
					n, err := p.SysRead(fd, buf)
					if err != nil {
						return err
					}
					if n == 0 {
						break
					}
				}
				return p.SysClose(fd)
			})
		}},
	}
}
