// Package fixture exercises the gojoin analyzer. The test harness
// analyzes it as repro/internal/engine, where every spawned goroutine
// must be joined on all normal exit paths — the worker-pool and
// barrier-window determinism depends on no goroutine outliving the
// function that spawned it.
package fixture

import "sync"

// Leak spawns and returns without joining.
func Leak(n int) {
	for i := 0; i < n; i++ {
		go work(i) // want `goroutine may outlive the enclosing function`
	}
}

// WaitGrouped is the worker-pool shape: Add/go in a loop, Wait after.
func WaitGrouped(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	wg.Wait()
}

// DoneChannel joins through a channel receive.
func DoneChannel() int {
	done := make(chan int)
	go func() {
		done <- work(1)
	}()
	return <-done
}

// JoinedOnOnePath waits on the success path but leaks on the error
// path — exactly the partial join the CFG walk exists to catch.
func JoinedOnOnePath(fail bool) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine may outlive the enclosing function`
		defer wg.Done()
		work(0)
	}()
	if fail {
		return errTest
	}
	wg.Wait()
	return nil
}

// DeferredJoin covers every exit with a deferred Wait.
func DeferredJoin(fail bool) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		work(0)
	}()
	if fail {
		return errTest
	}
	return nil
}

// RangeJoin drains a channel, which joins the producer.
func RangeJoin(n int) int {
	out := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			out <- i
		}
		close(out)
	}()
	total := 0
	for v := range out {
		total += v
	}
	return total
}

// LabeledSwitchJoin breaks out of a labeled switch and then joins:
// `break L` lands after the switch, not at the function's exit.
func LabeledSwitchJoin(x int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work(x)
	}()
L:
	switch x {
	case 1:
		break L
	}
	wg.Wait()
}

// LabeledSelectJoin is the same through a labeled select (sending,
// since a receive would count as a join).
func LabeledSelectJoin(c chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work(0)
	}()
L:
	select {
	case c <- 1:
		break L
	default:
	}
	wg.Wait()
}

type testErr struct{}

func (testErr) Error() string { return "test" }

var errTest = testErr{}

func work(i int) int { return i * 2 }
