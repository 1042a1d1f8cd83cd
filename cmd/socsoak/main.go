// Command socsoak is the fleet soak driver: it hammers a socgw gateway
// (or a lone socd — the API is identical) with rounds of concurrent
// job submissions and verifies the two fleet invariants the design
// promises:
//
//   - zero loss: every submitted job reaches a terminal "done" state,
//     even when workers are killed and restarted mid-round (the wrapper
//     script does the killing);
//   - byte identity: every repeat of a spec returns a result body
//     byte-identical to its first answer, whichever worker computed it
//     and however many failovers happened in between.
//
// Exit status is nonzero on any lost job or body mismatch, so wrapper
// scripts can assert soak health directly.
//
//	socsoak -addr localhost:9190 -rounds 5 -concurrency 8
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// specs is the soak workload: cheap real kinds with enough seed
// variety to spread across a 3-worker fleet, repeated every round so
// later rounds revisit earlier content hashes (exercising worker-cache
// affinity and failover byte identity at once).
func specs(round int) []string {
	out := []string{
		`{"kind":"sim","test":"memcpy"}`,
		`{"kind":"sim","test":"vecadd"}`,
		`{"kind":"lint","test":"memcpy"}`,
		`{"kind":"qor"}`,
	}
	for s := 0; s < 4; s++ {
		out = append(out, fmt.Sprintf(
			`{"kind":"stallhunt","stall":0.3,"messages":40,"seeds":2,"seed":%d}`, 1000+s))
	}
	// One per-round unique spec keeps every round from being a pure
	// cache replay.
	out = append(out, fmt.Sprintf(
		`{"kind":"stallhunt","stall":0.25,"messages":40,"seeds":2,"seed":%d}`, 2000+round))
	return out
}

func main() {
	addr := flag.String("addr", "localhost:9190", "gateway (or daemon) address")
	rounds := flag.Int("rounds", 5, "submission rounds")
	concurrency := flag.Int("concurrency", 8, "concurrent submissions per round")
	timeout := flag.Duration("timeout", 120*time.Second, "per-request timeout")
	flag.Parse()

	base := "http://" + strings.TrimPrefix(*addr, "http://")
	client := &http.Client{Timeout: *timeout}

	var mu sync.Mutex
	golden := map[string][]byte{} // spec -> first body seen
	lost, mismatched, completed := 0, 0, 0

	start := time.Now()
	for round := 1; round <= *rounds; round++ {
		work := specs(round)
		sem := make(chan struct{}, *concurrency)
		var wg sync.WaitGroup
		for _, spec := range work {
			wg.Add(1)
			sem <- struct{}{}
			go func(spec string) {
				defer wg.Done()
				defer func() { <-sem }()
				body, err := submitWait(client, base, spec)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					lost++
					fmt.Fprintf(os.Stderr, "socsoak: round %d: LOST %s: %v\n", round, spec, err)
					return
				}
				completed++
				if prev, ok := golden[spec]; ok {
					if !bytes.Equal(prev, body) {
						mismatched++
						fmt.Fprintf(os.Stderr, "socsoak: round %d: MISMATCH %s\n", round, spec)
					}
				} else {
					golden[spec] = body
				}
			}(spec)
		}
		wg.Wait()
		fmt.Printf("socsoak: round %d/%d done (%d completed, %d lost, %d mismatched)\n",
			round, *rounds, completed, lost, mismatched)
	}

	elapsed := time.Since(start).Seconds()
	fmt.Printf("socsoak: %d jobs completed, %d lost, %d mismatched in %.1fs (%.1f jobs/s)\n",
		completed, lost, mismatched, elapsed, float64(completed)/elapsed)
	if lost > 0 || mismatched > 0 {
		os.Exit(1)
	}
}

// submitWait submits one spec with wait=1 and returns the result body.
// Backpressure (429/503 with Retry-After) is retried — shed is flow
// control, not loss; only a genuine failure or retry exhaustion counts
// as a lost job.
func submitWait(client *http.Client, base, spec string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 30; attempt++ {
		resp, err := client.Post(base+"/jobs?wait=1", "application/json",
			strings.NewReader(spec))
		if err != nil {
			// Gateway restart window or connection blip: retry.
			lastErr = err
			time.Sleep(500 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			time.Sleep(500 * time.Millisecond)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return body, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("shed (%d): %s", resp.StatusCode, bytes.TrimSpace(body))
			time.Sleep(time.Second)
		default:
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	return nil, fmt.Errorf("retries exhausted: %w", lastErr)
}
