package ulib

import (
	"sync/atomic"

	"protosim/internal/kernel"
)

// Mutex is a user-level mutex built on the semaphore syscalls, exactly as
// Prototype 5's user library does (§4.5).
type Mutex struct {
	p   *kernel.Proc
	sem int
}

// NewMutex allocates a mutex (semaphore with count 1).
func NewMutex(p *kernel.Proc) (*Mutex, error) {
	id, err := p.SysSemCreate(1)
	if err != nil {
		return nil, err
	}
	return &Mutex{p: p, sem: id}, nil
}

// Lock acquires; callers pass their own proc (threads share the group's
// semaphore table).
func (m *Mutex) Lock(p *kernel.Proc) { p.SysSemWait(m.sem) }

// Unlock releases.
func (m *Mutex) Unlock(p *kernel.Proc) { p.SysSemPost(m.sem) }

// Cond is a user-level condition variable over semaphores: a wait counter
// guarded by the associated mutex plus a signal semaphore.
type Cond struct {
	p       *kernel.Proc
	sem     int
	waiters atomic.Int32
}

// NewCond allocates a condition variable.
func NewCond(p *kernel.Proc) (*Cond, error) {
	id, err := p.SysSemCreate(0)
	if err != nil {
		return nil, err
	}
	return &Cond{p: p, sem: id}, nil
}

// Wait atomically releases m and blocks until a Signal/Broadcast, then
// reacquires m. The usual lost-wakeup caveats are handled by the counter.
func (c *Cond) Wait(p *kernel.Proc, m *Mutex) {
	c.waiters.Add(1)
	m.Unlock(p)
	p.SysSemWait(c.sem)
	m.Lock(p)
}

// Signal wakes one waiter.
func (c *Cond) Signal(p *kernel.Proc) {
	if c.waiters.Load() > 0 {
		c.waiters.Add(-1)
		p.SysSemPost(c.sem)
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(p *kernel.Proc) {
	for c.waiters.Load() > 0 {
		c.waiters.Add(-1)
		p.SysSemPost(c.sem)
	}
}

// SpinLock is the user-level spinlock of §4.5: a CAS loop with a
// checkpoint in the spin so a single core can still make progress.
type SpinLock struct {
	held atomic.Bool
}

// Lock spins until acquired.
func (s *SpinLock) Lock(p *kernel.Proc) {
	for !s.held.CompareAndSwap(false, true) {
		p.SysYield()
	}
}

// Unlock releases.
func (s *SpinLock) Unlock() { s.held.Store(false) }
