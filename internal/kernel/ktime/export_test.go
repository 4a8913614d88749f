package ktime

// Kicks reports how many times arm has woken the driver.
func (s *Set) Kicks() int64 { return s.kicks.Load() }
