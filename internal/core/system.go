package core

import (
	"fmt"
	"io"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/uelf"
	"protosim/internal/user/apps/blockchain"
	"protosim/internal/user/apps/chanserv"
	"protosim/internal/user/apps/donut"
	"protosim/internal/user/apps/doomlike"
	"protosim/internal/user/apps/launcher"
	"protosim/internal/user/apps/media"
	"protosim/internal/user/apps/nes"
	"protosim/internal/user/apps/shell"
	"protosim/internal/user/apps/sysmon"
	"protosim/internal/user/apps/wordsmith"
)

// Options configures NewSystem.
type Options struct {
	Prototype Prototype
	Cores     int         // default: 1 for prototypes 1–4, 4 for 5
	Mode      kernel.Mode // baseline selection for Fig 9
	MemBytes  int         // default 64 MB
	FBWidth   int
	FBHeight  int

	// AssetScale shrinks the generated SD-card assets: 1 = paper-like
	// (multi-MB WAD, 480p clip), 0 or larger divisors = smaller/faster.
	AssetScale int

	// WithKeyboard attaches the USB keyboard (default true from P4 on).
	WithKeyboard *bool

	// EnableNet attaches the simulated NIC pair and boots the kernel's
	// network stack (sockets, /proc/net). Machine.PeerNIC is the far end
	// of the link: drive it with a host-side net.Stack to be "the rest of
	// the network". Off by default — the network column is an optional
	// subsystem, not a Table 1 prototype feature.
	EnableNet bool

	// ExtraRootFiles adds files to the ramdisk image.
	ExtraRootFiles map[string][]byte

	// ConsoleOut tees UART output.
	ConsoleOut io.Writer

	// TickInterval overrides the scheduler tick.
	TickInterval time.Duration
}

// System is a booted Proto instance.
type System struct {
	Proto    Prototype
	Machine  *hw.Machine
	Kernel   *kernel.Kernel
	Keyboard *hw.USBKeyboard
}

// programTable maps registry tokens to app mains.
func programTable() map[string]kernel.Program {
	return map[string]kernel.Program{
		"helloworld": func(p *kernel.Proc, argv []string) int {
			p.Kernel().Printk("hello world\n")
			return 0
		},
		"donut-text":    donut.MainText,
		"donut":         donut.MainPixel,
		"mario-noinput": nes.MainNoInput,
		"mario-proc":    nes.MainProc,
		"mario-sdl":     nes.MainSDL,
		"doom":          doomlike.Main,
		"musicplayer":   media.MusicPlayerMain,
		"videoplayer":   media.VideoPlayerMain,
		"slider":        media.SliderMain,
		"sysmon":        sysmon.Main,
		"launcher":      launcher.Main,
		"blockchain":    blockchain.Main,
		"chanserv":      chanserv.Main,
		"wordsmith":     wordsmith.Main,
		"sh":            shell.Main,
		"ls":            shell.LsMain,
		"cat":           shell.CatMain,
		"echo":          shell.EchoMain,
		"wc":            shell.WcMain,
		"grep":          shell.GrepMain,
		"mkdir":         shell.MkdirMain,
		"rm":            shell.RmMain,
		"uptime":        shell.UptimeMain,
		"ps":            shell.PsMain,
		"kill":          shell.KillMain,
	}
}

// NewSystem builds and boots a prototype.
func NewSystem(opts Options) (*System, error) {
	if opts.Prototype < Prototype1 || opts.Prototype > Prototype5 {
		return nil, fmt.Errorf("core: bad prototype %d", opts.Prototype)
	}
	feats := opts.Prototype.Features()
	cores := opts.Cores
	if cores <= 0 {
		if feats.Has(FeatMulticore) {
			cores = 4
		} else {
			cores = 1
		}
	}
	if !feats.Has(FeatMulticore) && cores > 1 {
		return nil, fmt.Errorf("core: prototype %d is single-core", opts.Prototype)
	}
	mem := opts.MemBytes
	if mem <= 0 {
		mem = 64 << 20
	}
	scale := opts.AssetScale
	if scale <= 0 {
		scale = 8 // small assets by default; experiments pass 1
	}

	mcfg := hw.DefaultConfig()
	mcfg.Cores = cores
	mcfg.MemBytes = mem
	if opts.FBWidth > 0 {
		mcfg.FBWidth = opts.FBWidth
	}
	if opts.FBHeight > 0 {
		mcfg.FBHeight = opts.FBHeight
	}
	if !feats.Has(FeatSDCard) {
		mcfg.SDBlocks = 0
	}
	mcfg.EnableNIC = opts.EnableNet
	m := hw.NewMachine(mcfg)

	// Partition 2 (FAT32) with user assets, as §3's OS-image layout.
	if feats.Has(FeatSDCard) {
		m.SD.SetLatencyScale(0) // asset generation at full speed
		if err := buildSDAssets(m.SD, scale); err != nil {
			return nil, fmt.Errorf("core: sd assets: %w", err)
		}
		m.SD.SetLatencyScale(1)
	}

	// Partition 1: the kernel image packs the ramdisk dump with all the
	// user programs as ELF executables.
	var ramdisk []byte
	if feats.Has(FeatXv6FS) {
		var err error
		ramdisk, err = RootImage(opts.ExtraRootFiles)
		if err != nil {
			return nil, fmt.Errorf("core: ramdisk: %w", err)
		}
	}

	withKbd := feats.Has(FeatUSBKeyboard)
	if opts.WithKeyboard != nil {
		withKbd = *opts.WithKeyboard && feats.Has(FeatUSBKeyboard)
	}
	var kbd *hw.USBKeyboard
	if withKbd {
		kbd = m.USB.AttachKeyboard()
	}

	rq := sched.RunqueueGlobal
	if feats.Has(FeatMulticore) {
		rq = sched.RunqueuePerCore
	}
	kcfg := kernel.Config{
		Machine:       m,
		Cores:         cores,
		Mode:          opts.Mode,
		RunqueueMode:  rq,
		TickInterval:  opts.TickInterval,
		EnableVM:      feats.Has(FeatVM),
		EnableFiles:   feats.Has(FeatFileAbstraction),
		EnableFAT:     feats.Has(FeatFAT32),
		EnableUSB:     withKbd,
		EnableSound:   feats.Has(FeatSound),
		EnableWM:      feats.Has(FeatWM),
		EnableThreads: feats.Has(FeatSyscallsThread),
		EnableNet:     opts.EnableNet,
		EnableTrace:   true,
		RamdiskImage:  ramdisk,
		ConsoleOut:    opts.ConsoleOut,
	}
	k := kernel.New(kcfg)
	for name, fn := range programTable() {
		k.RegisterProgram(name, fn)
	}
	if err := k.Boot(); err != nil {
		return nil, err
	}
	return &System{Proto: opts.Prototype, Machine: m, Kernel: k, Keyboard: kbd}, nil
}

// RootImage packs the xv6fs ramdisk image Proto boots from: every
// registered program as an ELF executable in /bin, NES cartridges in
// /roms, and /etc files — §3's partition 1 content. cmd/mkimage writes it
// to disk; NewSystem embeds it in the kernel.
func RootImage(extra map[string][]byte) ([]byte, error) {
	files := map[string][]byte{
		"/etc/motd":   []byte("welcome to proto\n"),
		"/etc/initrc": []byte("echo proto initrc\nuptime\n"),
	}
	for name := range programTable() {
		files["/bin/"+name] = uelf.Build(name, nil, 0)
	}
	// Extra NES cartridges as disk files (Prototype 4: "additional ROMs
	// as files").
	if cart, err := nes.BuildMarioROM("kungfu", 5); err == nil {
		files["/roms/kungfu.rom"] = cart.Serialize()
	}
	if cart, err := nes.BuildMarioROM("mario", 3); err == nil {
		files["/roms/mario.rom"] = cart.Serialize()
	}
	for p, b := range extra {
		files[p] = b
	}
	rd, err := xv6fs.BuildImage(4096, 256, files)
	if err != nil {
		return nil, err
	}
	return rd.Image(), nil
}

// CanRun checks an app against this system's prototype.
func (s *System) CanRun(appName string) (bool, string) {
	for _, app := range Apps() {
		if app.Name == appName {
			return CanRun(app, s.Proto)
		}
	}
	return false, "unknown app"
}

// RunApp launches an app by registry name and waits for it, returning its
// exit code. Prototype gating is enforced first, like the staged course
// materials would by simply not shipping the feature.
func (s *System) RunApp(name string, argv []string, timeout time.Duration) (int, error) {
	if ok, missing := s.CanRun(name); !ok {
		return -1, fmt.Errorf("core: %s needs %q which prototype %d lacks", name, missing, s.Proto)
	}
	return s.runProgram(name, argv, timeout)
}

// runProgram bypasses the matrix (utilities, tests).
func (s *System) runProgram(name string, argv []string, timeout time.Duration) (int, error) {
	table := programTable()
	fn, ok := table[name]
	if !ok {
		return -1, fmt.Errorf("core: no program %q", name)
	}
	if len(argv) == 0 {
		argv = []string{name}
	}
	done := make(chan int, 1)
	s.Kernel.Spawn(name, 0, func(p *kernel.Proc, a []string) int {
		code := fn(p, a)
		done <- code
		return code
	}, argv)
	select {
	case code := <-done:
		return code, nil
	case <-time.After(timeout):
		return -1, fmt.Errorf("core: %s did not finish within %v", name, timeout)
	}
}

// RunShellScript executes a script through the shell program.
func (s *System) RunShellScript(script string, timeout time.Duration) (int, error) {
	path := "/tmp-script"
	done := make(chan int, 1)
	s.Kernel.Spawn("sh", 0, func(p *kernel.Proc, a []string) int {
		// Write the script, then run it.
		fd, err := p.SysOpen(path, fs.OCreate|fs.OWrOnly|fs.OTrunc)
		if err != nil {
			done <- -2
			return 1
		}
		p.SysWrite(fd, []byte(script))
		p.SysClose(fd)
		code := shell.Main(p, []string{"sh", path})
		done <- code
		return code
	}, nil)
	select {
	case code := <-done:
		return code, nil
	case <-time.After(timeout):
		return -1, fmt.Errorf("core: script timed out")
	}
}

// Shutdown stops the system.
func (s *System) Shutdown() error { return s.Kernel.Shutdown() }

// buildSDAssets formats the card and installs doom1.wad, music, video and
// photos, sized by scale (1 = paper-like).
func buildSDAssets(sd *hw.SDCard, scale int) error {
	dev := sdDev{sd}
	if err := fat32.Mkfs(dev); err != nil {
		return err
	}
	f, err := fat32.Mount(dev, nil)
	if err != nil {
		return err
	}
	write := func(path string, data []byte) error {
		ops, err := f.Open(nil, path, fs.OCreate|fs.OWrOnly)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fl := fs.NewOpenFile(ops, fs.OCreate|fs.OWrOnly)
		defer fl.Close(nil)
		if _, err := fl.Write(nil, data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	}
	// DOOM assets: ~2 MB at scale 1.
	wadPad := (2 << 20) / scale
	if err := write("/doom1.wad", doomlike.BuildWAD(48, 32, wadPad)); err != nil {
		return err
	}
	// Music: ~20 s of audio at scale 1.
	seconds := 20 / scale
	if seconds < 1 {
		seconds = 1
	}
	pcm := poggTone(seconds * 22050)
	if err := write("/track01.pog", pcm); err != nil {
		return err
	}
	if err := write("/cover01.bmp", coverArt()); err != nil {
		return err
	}
	// Video clips: 480p-class and 720p-class at scale 1; tiny otherwise.
	w480, h480, n480 := 640, 480, 90
	w720, h720, n720 := 1280, 720, 45
	if scale > 1 {
		w480, h480, n480 = 64, 48, 12
		w720, h720, n720 = 128, 96, 8
	}
	clip480, err := synthClip(w480, h480, n480)
	if err != nil {
		return err
	}
	if err := write("/clip480.mpv", clip480); err != nil {
		return err
	}
	clip720, err := synthClip(w720, h720, n720)
	if err != nil {
		return err
	}
	if err := write("/clip720.mpv", clip720); err != nil {
		return err
	}
	// Photos for slider.
	if err := f.Mkdir(nil, "/photos"); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		img := photo(320/scaleClamp(scale), 240/scaleClamp(scale), byte(i*40))
		if err := write(fmt.Sprintf("/photos/img%d.bmp", i+1), img); err != nil {
			return err
		}
	}
	// One high-res PIM slide (Prototype 5 slider, Table 1 note 4).
	hi, err := photoPIM(640/scaleClamp(scale), 480/scaleClamp(scale), 0x77)
	if err != nil {
		return err
	}
	if err := write("/photos/hires.pim", hi); err != nil {
		return err
	}
	return f.Sync(nil)
}

func scaleClamp(s int) int {
	if s < 1 {
		return 1
	}
	if s > 4 {
		return 4
	}
	return s
}

// sdDev adapts hw.SDCard to fs.BlockDevice.
type sdDev struct{ sd *hw.SDCard }

func (d sdDev) BlockSize() int { return hw.SDBlockSize }
func (d sdDev) Blocks() int    { return d.sd.Blocks() }
func (d sdDev) ReadBlocks(lba, n int, dst []byte) error {
	return d.sd.ReadBlocks(lba, n, dst)
}
func (d sdDev) WriteBlocks(lba, n int, src []byte) error {
	return d.sd.WriteBlocks(lba, n, src)
}
