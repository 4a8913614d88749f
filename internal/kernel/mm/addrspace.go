package mm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// User address-space layout, as in §3: user space starts at 0; the stack
// sits at the top of the user region and demand-pages downward.
const (
	UserTop        = uint64(1 << 30) // 1 GB of user VA
	DefaultStackVA = UserTop         // stack top (exclusive)
	MaxStackPages  = 64
)

// Fault outcomes.
var (
	ErrSegfault   = errors.New("mm: segmentation fault")
	ErrFaultStorm = errors.New("mm: repeated page faults at same address")
)

// faultStormLimit is how many faults at one address the kernel tolerates
// before terminating the task (Prototype 3's policy). Legitimate sequences
// (demand map, then a COW break after each of a few forks) fault the same
// page a handful of times; a task stuck re-faulting blows past this.
const faultStormLimit = 16

// accessRetryLimit bounds the fault-retry loop inside a single access, so
// a resolution that claims success without fixing the translation cannot
// spin forever.
const accessRetryLimit = 4

// AddressSpace is one process's memory image: page table, heap, demand-
// paged stack, and the bookkeeping to share (threads, COW) and destroy it.
type AddressSpace struct {
	fa *FrameAllocator
	pt *PageTable

	mu       sync.Mutex
	heapBase uint64
	heapBrk  uint64
	stackTop uint64 // exclusive upper bound of stack region
	stackMax int    // pages the stack may grow to

	owned  map[uint64]int // va -> frame we must free (not shared/device maps)
	faults map[uint64]int

	refs atomic.Int32 // CLONE_VM sharers

	demandFaults atomic.Int64
	cowBreaks    atomic.Int64
}

// NewAddressSpace returns an empty space backed by fa.
func NewAddressSpace(fa *FrameAllocator) *AddressSpace {
	as := &AddressSpace{
		fa:     fa,
		pt:     NewPageTable(),
		owned:  make(map[uint64]int),
		faults: make(map[uint64]int),
	}
	as.refs.Store(1)
	return as
}

// PageTable exposes the underlying table (the kernel needs it for maps).
func (as *AddressSpace) PageTable() *PageTable { return as.pt }

// Ref adds a sharer (clone with CLONE_VM: threads share the mm struct).
func (as *AddressSpace) Ref() { as.refs.Add(1) }

// Refs returns the number of tasks sharing this space.
func (as *AddressSpace) Refs() int { return int(as.refs.Load()) }

// Release drops one sharer; the last release frees all owned frames.
func (as *AddressSpace) Release() {
	if as.refs.Add(-1) != 0 {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	for va, frame := range as.owned {
		as.fa.Free(frame)
		delete(as.owned, va)
	}
}

// MapSegment allocates frames for [va, va+len(data)) rounded to pages,
// copies data in, and maps it (exec's code/data loading).
func (as *AddressSpace) MapSegment(va uint64, data []byte, size int, flags PTEFlags) error {
	if va%PageSize != 0 {
		return ErrAlignment
	}
	if size < len(data) {
		size = len(data)
	}
	npages := (size + PageSize - 1) / PageSize
	as.mu.Lock()
	defer as.mu.Unlock()
	for p := 0; p < npages; p++ {
		frame, err := as.fa.Alloc()
		if err != nil {
			return err
		}
		pva := va + uint64(p)*PageSize
		if err := as.pt.Map(pva, frame*PageSize, flags|FlagUser|FlagCached); err != nil {
			as.fa.Free(frame)
			return err
		}
		as.owned[pva] = frame
		lo := p * PageSize
		if lo < len(data) {
			hi := lo + PageSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(as.fa.mem.Frame(frame), data[lo:hi])
		}
	}
	if end := va + uint64(npages)*PageSize; end > as.heapBase {
		as.heapBase, as.heapBrk = end, end
	}
	return nil
}

// MapShared maps [va, va+n) to existing physical memory without taking
// ownership — the framebuffer identity map of Prototype 3 (§4.3).
func (as *AddressSpace) MapShared(va uint64, pa, n int, flags PTEFlags) error {
	if va%PageSize != 0 || pa%PageSize != 0 {
		return ErrAlignment
	}
	npages := (n + PageSize - 1) / PageSize
	for p := 0; p < npages; p++ {
		if err := as.pt.Map(va+uint64(p)*PageSize, pa+p*PageSize, flags|FlagUser); err != nil {
			return err
		}
	}
	return nil
}

// SetupStack defines the demand-paged stack region ending at top and maps
// only the first page — Prototype 3 maps "code pages and one stack page".
func (as *AddressSpace) SetupStack(top uint64, maxPages int) error {
	if top%PageSize != 0 || maxPages < 1 {
		return ErrAlignment
	}
	as.mu.Lock()
	as.stackTop = top
	as.stackMax = maxPages
	as.mu.Unlock()
	return as.demandMap(top - PageSize)
}

// StackRange returns the stack's reserved [low, top) bounds.
func (as *AddressSpace) StackRange() (low, top uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.stackTop - uint64(as.stackMax)*PageSize, as.stackTop
}

// Sbrk grows (or shrinks, delta<0 unsupported as in Proto) the heap and
// returns the previous break.
func (as *AddressSpace) Sbrk(delta int) (uint64, error) {
	as.mu.Lock()
	old := as.heapBrk
	if delta == 0 {
		as.mu.Unlock()
		return old, nil
	}
	if delta < 0 {
		as.mu.Unlock()
		return 0, fmt.Errorf("mm: negative sbrk unsupported")
	}
	newBrk := old + uint64(delta)
	firstNew := (old + PageSize - 1) / PageSize
	lastNew := (newBrk + PageSize - 1) / PageSize
	as.heapBrk = newBrk
	as.mu.Unlock()
	for p := firstNew; p < lastNew; p++ {
		va := p * PageSize
		frame, err := as.fa.Alloc()
		if err != nil {
			return 0, err
		}
		if err := as.pt.Map(va, frame*PageSize, FlagValid|FlagWrite|FlagUser|FlagCached); err != nil {
			as.fa.Free(frame)
			return 0, err
		}
		as.mu.Lock()
		as.owned[va] = frame
		as.mu.Unlock()
	}
	return old, nil
}

// Brk returns the current heap break.
func (as *AddressSpace) Brk() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.heapBrk
}

// demandMap services a stack fault by mapping a fresh zero page.
func (as *AddressSpace) demandMap(va uint64) error {
	page := va &^ uint64(PageSize-1)
	frame, err := as.fa.Alloc()
	if err != nil {
		return err
	}
	if err := as.pt.Map(page, frame*PageSize, FlagValid|FlagWrite|FlagUser|FlagCached); err != nil {
		as.fa.Free(frame)
		return err
	}
	as.mu.Lock()
	as.owned[page] = frame
	as.mu.Unlock()
	as.demandFaults.Add(1)
	return nil
}

// inStack reports whether va falls in the demand-paged stack region.
func (as *AddressSpace) inStack(va uint64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.stackTop == 0 {
		return false
	}
	low := as.stackTop - uint64(as.stackMax)*PageSize
	return va >= low && va < as.stackTop
}

// HandleFault resolves a translation or permission fault at va. It
// implements Prototype 3's policy: demand-page the stack, break COW on
// write, and terminate tasks that fault repeatedly at one address.
func (as *AddressSpace) HandleFault(va uint64, write bool) error {
	page := va &^ uint64(PageSize-1)
	as.mu.Lock()
	as.faults[page]++
	n := as.faults[page]
	as.mu.Unlock()
	if n >= faultStormLimit {
		return fmt.Errorf("%w: va %#x faulted %d times", ErrFaultStorm, va, n)
	}

	e, mapped := as.pt.Lookup(page)
	switch {
	case !mapped && as.inStack(va):
		return as.demandMap(va)
	case mapped && write && e.Flags&FlagCOW != 0:
		return as.breakCOW(page, e)
	default:
		return fmt.Errorf("%w: va %#x (write=%v)", ErrSegfault, va, write)
	}
}

// breakCOW gives the faulting space its own copy of a shared page.
func (as *AddressSpace) breakCOW(va uint64, e PTE) error {
	as.cowBreaks.Add(1)
	frame := e.PA / PageSize
	if as.fa.Refs(frame) == 1 {
		// Last sharer: just make it writable again.
		return as.pt.SetFlags(va, (e.Flags&^FlagCOW)|FlagWrite)
	}
	newFrame, err := as.fa.Alloc()
	if err != nil {
		return err
	}
	copy(as.fa.mem.Frame(newFrame), as.fa.mem.Frame(frame))
	if err := as.pt.SetPA(va, newFrame*PageSize); err != nil {
		as.fa.Free(newFrame)
		return err
	}
	if err := as.pt.SetFlags(va, (e.Flags&^FlagCOW)|FlagWrite); err != nil {
		return err
	}
	as.mu.Lock()
	as.owned[va] = newFrame
	as.mu.Unlock()
	as.fa.Free(frame) // drop our reference to the shared frame
	return nil
}

// Fork clones the address space for fork(). With cow=false every private
// page is eagerly copied (Proto's fork — the reason Figure 9 shows it 17×
// slower than Linux); with cow=true pages are shared read-only and copied
// on write (the production-OS baseline).
func (as *AddressSpace) Fork(cow bool) (*AddressSpace, error) {
	child := NewAddressSpace(as.fa)
	as.mu.Lock()
	child.heapBase, child.heapBrk = as.heapBase, as.heapBrk
	child.stackTop, child.stackMax = as.stackTop, as.stackMax
	as.mu.Unlock()

	var copyErr error
	as.pt.VisitPages(func(va uint64, e PTE) {
		if copyErr != nil {
			return
		}
		as.mu.Lock()
		frame, ownedByUs := as.owned[va]
		as.mu.Unlock()
		if !ownedByUs {
			// Shared/device mapping (framebuffer): map the same PA.
			copyErr = child.pt.Map(va, e.PA, e.Flags&^FlagValid)
			return
		}
		if cow {
			// Share the frame read-only in both spaces.
			as.fa.Ref(frame)
			newFlags := (e.Flags &^ (FlagWrite | FlagValid)) | FlagCOW
			if err := child.pt.Map(va, e.PA, newFlags); err != nil {
				copyErr = err
				return
			}
			child.mu.Lock()
			child.owned[va] = frame
			child.mu.Unlock()
			if e.Flags&FlagWrite != 0 {
				if err := as.pt.SetFlags(va, (e.Flags&^FlagWrite)|FlagCOW); err != nil {
					copyErr = err
				}
			}
			return
		}
		// Eager copy.
		newFrame, err := as.fa.Alloc()
		if err != nil {
			copyErr = err
			return
		}
		copy(as.fa.mem.Frame(newFrame), as.fa.mem.Frame(frame))
		if err := child.pt.Map(va, newFrame*PageSize, e.Flags&^FlagValid); err != nil {
			as.fa.Free(newFrame)
			copyErr = err
			return
		}
		child.mu.Lock()
		child.owned[va] = newFrame
		child.mu.Unlock()
	})
	if copyErr != nil {
		child.Release()
		return nil, copyErr
	}
	return child, nil
}

// access performs a user-mode load or store of len(buf) bytes at va,
// walking the page table page by page and taking faults as hardware would.
func (as *AddressSpace) access(va uint64, buf []byte, write bool) error {
	off := 0
	retries := 0
	for off < len(buf) {
		cur := va + uint64(off)
		pa, flags, ok := as.pt.Translate(cur)
		if !ok || (write && flags&FlagWrite == 0) {
			retries++
			if retries > accessRetryLimit {
				return fmt.Errorf("%w: access at %#x", ErrFaultStorm, cur)
			}
			if err := as.HandleFault(cur, write); err != nil {
				return err
			}
			continue // retry the access, as the CPU would
		}
		retries = 0
		if flags&FlagUser == 0 {
			return fmt.Errorf("%w: EL0 access to kernel page %#x", ErrSegfault, cur)
		}
		pageEnd := (cur | uint64(PageSize-1)) + 1
		n := int(pageEnd - cur)
		if n > len(buf)-off {
			n = len(buf) - off
		}
		phys := as.fa.mem.Bytes(pa, n)
		if write {
			copy(phys, buf[off:off+n])
		} else {
			copy(buf[off:off+n], phys)
		}
		off += n
	}
	return nil
}

// ReadAt loads len(buf) bytes from user va.
func (as *AddressSpace) ReadAt(va uint64, buf []byte) error { return as.access(va, buf, false) }

// WriteAt stores buf at user va.
func (as *AddressSpace) WriteAt(va uint64, buf []byte) error { return as.access(va, buf, true) }

// Stats reports fault activity.
func (as *AddressSpace) Stats() (demandFaults, cowBreaks int64, pages int) {
	return as.demandFaults.Load(), as.cowBreaks.Load(), as.pt.Pages()
}
