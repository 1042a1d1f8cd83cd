package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// submitSpec submits a JSON spec through Submit and waits for its end.
func submitSpec(t *testing.T, srv *Server, spec string) (status, errMsg string) {
	t.Helper()
	sp, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	j, err := srv.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st, _ := j.Snapshot()
	return st.Status, st.Error
}

// settleGoroutines waits briefly for the goroutine count to fall to at
// most want and returns the count it saw last.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A timed-out job frees its worker at once: the job context stops the
// sim's kernel and each stall-hunt seed's kernel, so no body outlives
// its job and no simulator thread survives it. Every bundled design
// verifies well inside the timeout, so mc's TestContextEndsSearch
// checks that the model checker's search stops on its context.
func TestTimedOutJobsFreeTheirWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 1, JobTimeout: 100 * time.Millisecond, Logf: t.Logf})
	for _, spec := range []string{
		`{"kind":"sim","test":"memcpy","stall":0.999,"max_cycles":1000000000}`,
		`{"kind":"stallhunt","messages":100000000,"seeds":1}`,
	} {
		start := time.Now()
		status, errMsg := submitSpec(t, srv, spec)
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("%s ended after %v, want within 500ms", spec, took)
		}
		if status != "failed" || !strings.Contains(errMsg, "timed out") {
			t.Errorf("%s: status %s (%s), want failed ... timed out", spec, status, errMsg)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("goroutines %d -> %d after Shutdown", before, n)
	}
}

// Every uncached sim closes its simulator: fifty distinct specs leave
// the goroutine count where the first one left it.
func TestUncachedSimsLeaveNoThreads(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	sim := func(i int) { // each cycle budget is a distinct content hash
		status, errMsg := submitSpec(t, srv, fmt.Sprintf(`{"kind":"sim","test":"memcpy","max_cycles":%d}`, 10000+i))
		if status != "done" {
			t.Fatalf("sim %d: %s (%s)", i, status, errMsg)
		}
	}
	sim(1)
	base := runtime.NumGoroutine()
	for i := 2; i <= 50; i++ {
		sim(i)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines %d -> %d over 49 uncached sims", base, n)
	}
}
