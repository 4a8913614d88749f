//go:build goexperiment.synctest

package bcache

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestBubbleClaimsSleepOnFullShard runs contend in a synctest bubble:
// eight tasks, one block each, against three buffers and a device that
// takes 10ms of bubble time per command. Bubble time moves only while
// every goroutine is blocked, so a claim that polled for room would stop
// the clock; sleeping claims refill the shard the instant a completion
// frees a buffer, and the reads run in ceil(8/3) = 3 waves. The elapsed
// time must come out the same in every run.
func TestBubbleClaimsSleepOnFullShard(t *testing.T) {
	const delay = 10 * time.Millisecond
	var elapsed [2]time.Duration
	for i := range elapsed {
		synctest.Run(func() {
			elapsed[i] = contend(t, 8, 3, 1, 1, delay)
		})
	}
	if elapsed[0] != elapsed[1] {
		t.Fatalf("two runs took %v and %v of bubble time", elapsed[0], elapsed[1])
	}
	if elapsed[0] != 3*delay {
		t.Fatalf("claims took %v of bubble time, want %v (3 waves of %v)", elapsed[0], 3*delay, delay)
	}
}
