// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §3 and EXPERIMENTS.md), plus ablations for the design
// choices §5.2 calls out (memmove, YUV conversion, fork strategy). The
// FAT32 range-vs-bypass ablation lives with the filesystem, in
// internal/kernel/fat32's BenchmarkRange{Read,Write}256K{Sharded,Bypass}.
// Run: go test -bench=. -benchmem
package main

import (
	"fmt"
	"testing"
	"time"

	"protosim/internal/core"
	"protosim/internal/hw"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/mm"
	"protosim/internal/user/apps/blockchain"
	"protosim/internal/user/apps/nes"
	"protosim/internal/user/codec/mpv"
)

// bootP5 boots a Prototype 5 system for benchmarking.
func bootP5(b *testing.B, cores int, mode kernel.Mode) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Options{
		Prototype:  core.Prototype5,
		Cores:      cores,
		Mode:       mode,
		MemBytes:   96 << 20,
		AssetScale: 8,
		FBWidth:    640,
		FBHeight:   480,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Shutdown() })
	return sys
}

// inProc runs fn inside a process and waits.
func inProc(b *testing.B, sys *core.System, fn func(p *kernel.Proc)) {
	b.Helper()
	done := make(chan struct{})
	sys.Kernel.Spawn("bench", 0, func(p *kernel.Proc, _ []string) int {
		fn(p)
		close(done)
		return 0
	}, nil)
	select {
	case <-done:
	case <-time.After(10 * time.Minute):
		b.Fatal("bench process hung")
	}
}

// --- Figure 8 ---

func BenchmarkFig8Syscall(b *testing.B) {
	sys := bootP5(b, 4, kernel.ModeProto)
	inProc(b, sys, func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SysGetPID()
		}
	})
}

func BenchmarkFig8IPCPipe(b *testing.B) {
	sys := bootP5(b, 4, kernel.ModeProto)
	inProc(b, sys, func(p *kernel.Proc) {
		r1, w1, _ := p.SysPipe()
		r2, w2, _ := p.SysPipe()
		n := b.N
		p.SysFork(func(c *kernel.Proc) {
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				if _, err := c.SysRead(r1, buf); err != nil {
					return
				}
				if _, err := c.SysWrite(w2, buf); err != nil {
					return
				}
			}
		})
		buf := []byte{1}
		b.ResetTimer()
		for i := 0; i < n; i++ {
			p.SysWrite(w1, buf)
			p.SysRead(r2, buf)
		}
		b.StopTimer()
		p.SysWait()
	})
}

func benchFSThroughput(b *testing.B, ioSize int, write bool) {
	sys := bootP5(b, 4, kernel.ModeProto)
	inProc(b, sys, func(p *kernel.Proc) {
		buf := make([]byte, ioSize)
		fd, err := p.SysOpen("/d/bench.bin", fs.OCreate|fs.ORdWr|fs.OTrunc)
		if err != nil {
			b.Error(err)
			return
		}
		// Preallocate 1 MB for the read case.
		for written := 0; written < 1<<20; written += ioSize {
			p.SysWrite(fd, buf)
		}
		b.SetBytes(int64(ioSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if write {
				off := int64(i%(1<<20/ioSize)) * int64(ioSize)
				p.SysLseek(fd, off, fs.SeekSet)
				p.SysWrite(fd, buf)
			} else {
				off := int64(i%(1<<20/ioSize)) * int64(ioSize)
				p.SysLseek(fd, off, fs.SeekSet)
				p.SysRead(fd, buf)
			}
		}
		b.StopTimer()
		p.SysClose(fd)
	})
}

func BenchmarkFig8FATRead4K(b *testing.B)    { benchFSThroughput(b, 4<<10, false) }
func BenchmarkFig8FATRead128K(b *testing.B)  { benchFSThroughput(b, 128<<10, false) }
func BenchmarkFig8FATRead512K(b *testing.B)  { benchFSThroughput(b, 512<<10, false) }
func BenchmarkFig8FATWrite128K(b *testing.B) { benchFSThroughput(b, 128<<10, true) }

func BenchmarkFig8Boot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Options{
			Prototype: core.Prototype5, AssetScale: 8, MemBytes: 96 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Shutdown()
	}
}

// --- Figure 9 (the mode-sensitive pair that defines the figure's shape) ---

func benchFork(b *testing.B, mode kernel.Mode) {
	sys := bootP5(b, 4, mode)
	inProc(b, sys, func(p *kernel.Proc) {
		p.SysSbrk(96 * mm.PageSize) // pages for fork to copy (or COW-share)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SysFork(func(c *kernel.Proc) {})
			p.SysWait()
		}
	})
}

// BenchmarkFig9ForkProto vs BenchmarkFig9ForkProd shows the eager-copy vs
// COW gap (paper: Proto's fork ~17x slower than production OSes).
func BenchmarkFig9ForkProto(b *testing.B) { benchFork(b, kernel.ModeProto) }
func BenchmarkFig9ForkProd(b *testing.B)  { benchFork(b, kernel.ModeProd) }

func benchDiskRead(b *testing.B, mode kernel.Mode) {
	sys := bootP5(b, 4, mode)
	inProc(b, sys, func(p *kernel.Proc) {
		buf := make([]byte, 256<<10)
		fd, _ := p.SysOpen("/d/dfr.bin", fs.OCreate|fs.ORdWr)
		p.SysWrite(fd, buf)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SysLseek(fd, 0, fs.SeekSet)
			p.SysRead(fd, buf)
		}
		b.StopTimer()
		p.SysClose(fd)
	})
}

// Proto's disk read path vs the xv6 baseline. Since the sharded cache
// landed, the Proto column is a warm-cache read (the 256 KB file fits),
// while the xv6 column runs a faithful 30-buffer single-shard cache over
// a depth-1 queue and an SD driver that splits every command into
// per-sector ones — so the gap is much larger than the paper's 2–3×
// device-path effect. The §5.2 range-vs-bypass *device* comparison lives
// in internal/kernel/fat32's BenchmarkRangeRead256K{Sharded,Bypass}.
func BenchmarkFig9DiskReadProto(b *testing.B) { benchDiskRead(b, kernel.ModeProto) }
func BenchmarkFig9DiskReadXv6(b *testing.B)   { benchDiskRead(b, kernel.ModeXv6) }

// --- Table 5: app FPS ---

func benchAppFPS(b *testing.B, app string, argvFor func(frames int) []string) {
	sys := bootP5(b, 4, kernel.ModeProto)
	frames := b.N
	if frames < 5 {
		frames = 5
	}
	start := time.Now()
	code, err := sys.RunApp(app, argvFor(frames), 10*time.Minute)
	if err != nil || code != 0 {
		b.Fatalf("%s: code=%d err=%v", app, code, err)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(frames)/elapsed.Seconds(), "fps")
	b.ReportMetric(0, "ns/op") // fps is the meaningful metric here
}

func BenchmarkTable5Doom(b *testing.B) {
	benchAppFPS(b, "doom", func(f int) []string { return []string{"doom", "/d/doom1.wad", fmt.Sprint(f)} })
}

func BenchmarkTable5Video480(b *testing.B) {
	benchAppFPS(b, "videoplayer", func(f int) []string {
		return []string{"videoplayer", "/d/clip480.mpv", fmt.Sprint(f)}
	})
}

func BenchmarkTable5MarioNoInput(b *testing.B) {
	benchAppFPS(b, "mario-noinput", func(f int) []string {
		return []string{"mario-noinput", "builtin:mario", fmt.Sprint(f)}
	})
}

func BenchmarkTable5MarioProc(b *testing.B) {
	benchAppFPS(b, "mario-proc", func(f int) []string {
		return []string{"mario-proc", "builtin:mario", fmt.Sprint(f)}
	})
}

func BenchmarkTable5MarioSDL(b *testing.B) {
	benchAppFPS(b, "mario-sdl", func(f int) []string {
		return []string{"mario-sdl", "builtin:mario", fmt.Sprint(f)}
	})
}

// --- Figure 10: multicore ---

func benchMario8(b *testing.B, cores int) {
	sys := bootP5(b, cores, kernel.ModeProto)
	frames := b.N
	if frames < 4 {
		frames = 4
	}
	start := time.Now()
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		sys.Kernel.Spawn("mario8", 0, func(p *kernel.Proc, _ []string) int {
			code := runMarioFrames(p, frames)
			done <- code
			return code
		}, nil)
	}
	for i := 0; i < 8; i++ {
		if code := <-done; code != 0 {
			b.Fatalf("instance exited %d", code)
		}
	}
	b.ReportMetric(float64(frames)/time.Since(start).Seconds(), "fps/instance")
}

func runMarioFrames(p *kernel.Proc, frames int) int {
	cart, err := nes.BuildMarioROM("mario", 3)
	if err != nil {
		return 1
	}
	console := nes.NewConsole(cart)
	frame := make([]byte, nes.ScreenW*nes.ScreenH*4)
	for i := 0; i < frames; i++ {
		console.StepFrame()
		console.Render(frame, nes.ScreenW*4)
		p.Checkpoint()
	}
	return 0
}

func BenchmarkFig10Mario8x1Core(b *testing.B)  { benchMario8(b, 1) }
func BenchmarkFig10Mario8x2Cores(b *testing.B) { benchMario8(b, 2) }
func BenchmarkFig10Mario8x4Cores(b *testing.B) { benchMario8(b, 4) }

func benchMiner(b *testing.B, cores int) {
	sys := bootP5(b, cores, kernel.ModeProto)
	inProc(b, sys, func(p *kernel.Proc) {
		m := blockchain.NewMiner(12, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := blockchain.Block{Index: uint32(i)}
			if _, err := m.MineBlock(p, blk); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkFig10Blockchain1Core(b *testing.B)  { benchMiner(b, 1) }
func BenchmarkFig10Blockchain4Cores(b *testing.B) { benchMiner(b, 4) }

// --- Ablations (§5.2's optimizations) ---

// Memmove: the ARMv8-assembly substitute vs the byte loop.
func BenchmarkAblationMemmoveFast(b *testing.B) {
	mem := hw.NewMem(8 << 20)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		mem.MemMove(0, 4<<20, 1<<20)
	}
}

func BenchmarkAblationMemmoveSlow(b *testing.B) {
	mem := hw.NewMem(8 << 20)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		mem.MemMoveSlow(0, 4<<20, 1<<20)
	}
}

// YUV conversion: fixed-point (SIMD substitute) vs naive float — the
// "nearly 3x" of §5.2.
func benchYUV(b *testing.B, fast bool) {
	w, h := 640, 480
	f := mpv.NewFrame(w, h)
	for i := range f.Y {
		f.Y[i] = byte(i)
	}
	dst := make([]byte, w*h*4)
	b.SetBytes(int64(w * h * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fast {
			mpv.FastYUVToXRGB(f, dst, w*4)
		} else {
			mpv.SlowYUVToXRGB(f, dst, w*4)
		}
	}
}

func BenchmarkAblationYUVFast(b *testing.B) { benchYUV(b, true) }
func BenchmarkAblationYUVSlow(b *testing.B) { benchYUV(b, false) }

// Emulator-only FPS (no OS): isolates app cost from OS cost in Table 5.
func BenchmarkAblationMarioEmulatorOnly(b *testing.B) {
	cart, err := nes.BuildMarioROM("mario", 3)
	if err != nil {
		b.Fatal(err)
	}
	console := nes.NewConsole(cart)
	frame := make([]byte, nes.ScreenW*nes.ScreenH*4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		console.StepFrame()
		console.Render(frame, nes.ScreenW*4)
	}
}
