package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestFollowersSeeOneSequence: followers attached before, during and
// after the log fills — one of them slow — all see the same events in
// the same order, ending at the terminal one; a publish after it is
// dropped.
func TestFollowersSeeOneSequence(t *testing.T) {
	const n = 500
	h := newEventLog()
	follow := func(pause time.Duration) []Event {
		var got []Event
		h.Follow(context.Background(), func(e Event) bool {
			got = append(got, e)
			if pause > 0 && len(got)%100 == 1 {
				time.Sleep(pause)
			}
			return true
		})
		return got
	}
	var wg sync.WaitGroup
	seen := make([][]Event, 3)
	for i, pause := range []time.Duration{0, 5 * time.Millisecond, 0} {
		wg.Add(1)
		go func(i int, pause time.Duration) {
			defer wg.Done()
			seen[i] = follow(pause)
		}(i, pause)
	}
	for i := 1; i <= n; i++ {
		h.Publish(Event{Event: "progress", Done: i, Total: n, Label: fmt.Sprint(i)})
	}
	h.Publish(Event{Event: "done"})
	h.Publish(Event{Event: "failed"}) // after the terminal event: dropped
	wg.Wait()
	seen = append(seen, follow(0)) // joins after the terminal event

	want := seen[0]
	if len(want) != n+1 || want[n].Event != "done" {
		t.Fatalf("follower saw %d events ending %+v, want %d ending done", len(want), want[len(want)-1], n+1)
	}
	for i, e := range want {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	for i, got := range seen[1:] {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("follower %d saw a different sequence (%d events)", i+1, len(got))
		}
	}
}

// TestFollowStops: Follow returns when its callback declines or its
// context ends, without waiting for the terminal event.
func TestFollowStops(t *testing.T) {
	h := newEventLog()
	h.Publish(Event{Event: "queued"})
	h.Publish(Event{Event: "start"})
	calls := 0
	h.Follow(context.Background(), func(Event) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("callback ran %d times after declining, want 1", calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		h.Follow(ctx, func(Event) bool { return true })
	}()
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not return after its context ended")
	}
}
