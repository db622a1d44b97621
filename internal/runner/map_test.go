package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapOrderedAcrossParallelism: results land at their submission
// index whatever the worker count or completion order — the ordering
// discipline MeasureBatch, the sweep executor and the fabric
// coordinator build on.
func TestMapOrderedAcrossParallelism(t *testing.T) {
	const n = 20
	for _, j := range []int{1, 4, 32} {
		got, err := Map(context.Background(), n, Options{Parallelism: j}, func(i int) (string, error) {
			return fmt.Sprintf("item-%d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != fmt.Sprintf("item-%d", i) {
				t.Fatalf("j=%d: index %d holds %q", j, i, v)
			}
		}
	}
}

// TestMapCollectsErrors: a failing item fails the batch with its
// index in the message, and the other items still run.
func TestMapCollectsErrors(t *testing.T) {
	var ran int64
	_, err := Map(context.Background(), 5, Options{Parallelism: 2}, func(i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if ran != 5 {
		t.Fatalf("only %d items ran; an error must not abandon the rest", ran)
	}
}

// TestMapRecoversPanic: a panicking item becomes that item's error,
// not a crashed process.
func TestMapRecoversPanic(t *testing.T) {
	_, err := Map(context.Background(), 3, Options{Parallelism: 3}, func(i int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 1 panicked: kaboom") {
		t.Fatalf("err = %v", err)
	}
}

// TestMapCancellation: cancelling the context marks unstarted items
// canceled instead of running them.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	_, err := Map(ctx, 100, Options{Parallelism: 1}, func(i int) (int, error) {
		if atomic.AddInt64(&ran, 1) == 1 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran == 100 {
		t.Fatal("cancellation did not stop the batch")
	}
}

// TestMapProgress: the progress callback is serialized and strictly
// increasing to the total.
func TestMapProgress(t *testing.T) {
	var seen []int
	_, err := Map(context.Background(), 10, Options{
		Parallelism: 4,
		Progress:    func(done, total int) { seen = append(seen, done) },
	}, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("progress fired %d times, want 10", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v not strictly increasing", seen)
		}
	}
}

// TestMapEmpty: a zero-item map returns an empty slice and no error.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}
