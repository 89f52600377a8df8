package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if Resolve(0) != DefaultWorkers() {
		t.Fatalf("Resolve(0) = %d, want %d", Resolve(0), DefaultWorkers())
	}
	if Resolve(-3) != DefaultWorkers() {
		t.Fatalf("Resolve(-3) = %d", Resolve(-3))
	}
	if Resolve(5) != 5 {
		t.Fatalf("Resolve(5) = %d", Resolve(5))
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	prev := SetLimit(8)
	defer SetLimit(prev)
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		hits := make([]int64, n)
		if err := ForEach(nil, workers, n, func(i int) error {
			atomic.AddInt64(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	if err := ForEach(nil, 4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatal("n=0 must not invoke fn")
	}
	ran := false
	if err := ForEach(nil, 4, 1, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("n=1 not executed")
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	var calls int
	err := ForEach(nil, 1, 10, func(i int) error {
		calls++
		if i == 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("sequential mode ran %d calls after error", calls)
	}
}

func TestForEachParallelReturnsLowestIndexError(t *testing.T) {
	prev := SetLimit(8)
	defer SetLimit(prev)
	// Every index fails; the reported error must deterministically be the
	// lowest index that executed — and index 0 always executes.
	err := ForEach(nil, 8, 50, func(i int) error { return fmt.Errorf("fail at %d", i) })
	if err == nil || err.Error() != "fail at 0" {
		t.Fatalf("err = %v, want fail at 0", err)
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var a, b int32
	err := Do(nil, 4,
		func() error { atomic.StoreInt32(&a, 1); return nil },
		func() error { atomic.StoreInt32(&b, 2); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 {
		t.Fatalf("tasks not run: a=%d b=%d", a, b)
	}
}

func TestSetLimit(t *testing.T) {
	prev := SetLimit(3)
	if Limit() != 3 {
		t.Fatalf("Limit() = %d", Limit())
	}
	if got := SetLimit(prev); got != 3 {
		t.Fatalf("SetLimit returned %d", got)
	}
	// A floor of 1 applies.
	p := SetLimit(0)
	if Limit() != 1 {
		t.Fatalf("Limit() after SetLimit(0) = %d", Limit())
	}
	SetLimit(p)
}

func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	prev := SetLimit(2)
	defer SetLimit(prev)
	var total int64
	err := ForEach(nil, 4, 8, func(i int) error {
		return ForEach(nil, 4, 8, func(j int) error {
			atomic.AddInt64(&total, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 64 {
		t.Fatalf("nested total = %d", total)
	}
}

// TestForEachHelperPanicSurfacesOnCaller pins that a helper goroutine's
// panic does not end the process: ForEach re-raises it on the calling
// goroutine, with the panicking goroutine's stack, once every helper token
// is back. Each work item waits until both have started, so the helper is
// sure to run one of them.
func TestForEachHelperPanicSurfacesOnCaller(t *testing.T) {
	prev := SetLimit(8)
	defer SetLimit(prev)
	var started sync.WaitGroup
	started.Add(2)
	var got any
	func() {
		defer func() { got = recover() }()
		ForEach(nil, 2, 2, func(i int) error { //nolint:errcheck
			started.Done()
			started.Wait()
			panic(fmt.Sprintf("boom %d", i))
		})
	}()
	if got == nil {
		t.Fatal("ForEach returned instead of re-raising the panic")
	}
	if msg := fmt.Sprint(got); !strings.Contains(msg, "boom ") || !strings.Contains(msg, "goroutine ") {
		t.Fatalf("re-raised panic lacks the value or the stack:\n%s", msg)
	}
	if out := Outstanding(); out != 0 {
		t.Fatalf("%d helper tokens leaked", out)
	}
}
