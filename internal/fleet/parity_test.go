package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// reply is what the front-door parity test compares of one response.
type reply struct {
	code   int
	xcache string
	keys   []string // JSON keys, "row[]." prefixed for array elements
	body   []byte
}

// play drives one request sequence a socctl user would: a cold submit
// with wait, a cached repeat without wait, then the repeat's status,
// the job list, the repeat's stream and result, and healthz.
func play(t *testing.T, base, spec string) []reply {
	t.Helper()
	do := func(method, path, body string) reply {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply{code: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), keys: jsonKeys(t, data), body: data}
	}
	out := []reply{do("POST", "/jobs?wait=1", spec), do("POST", "/jobs", spec)}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out[1].body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("repeat submit reply %s: %v", out[1].body, err)
	}
	for _, path := range []string{"/jobs/" + sub.ID, "/jobs", "/jobs/" + sub.ID + "/stream", "/jobs/" + sub.ID + "/result", "/healthz"} {
		out = append(out, do("GET", path, ""))
	}
	return out
}

// jsonKeys lists the sorted object keys of every JSON value in data (a
// result body, a reply, or NDJSON lines), descending into arrays.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				set[prefix+k] = true
				walk(prefix+k+".", e)
			}
		case []any:
			for _, e := range v {
				walk(strings.TrimSuffix(prefix, ".")+"[].", e)
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var v any
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("reply is not JSON: %v: %s", err, data)
		}
		walk("", v)
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestFrontDoorParity: socgw is the daemon's own front over a fleet
// executor, so the same requests get the same status codes, the same
// JSON keys (the gateway may name a worker), the same X-Cache and
// byte-identical result bodies from a lone socd and from a gateway.
func TestFrontDoorParity(t *testing.T) {
	spec := `{"kind":"fleettest","messages":31}`
	solo := serve.New(serve.Config{Workers: 1, JobTimeout: -1})
	sts := httptest.NewServer(solo.Handler())
	t.Cleanup(func() {
		sts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		solo.Shutdown(ctx)
	})
	want := play(t, sts.URL, spec)

	_, ts, ln := testGateway(t, GatewayConfig{})
	testWorker(t, "w1", ln.Addr().String(), serve.Config{Workers: 1})
	waitRegistered(t, ts.URL, 1)
	got := play(t, ts.URL, spec)

	steps := []string{"cold submit", "cached repeat", "status", "list", "stream", "result", "healthz"}
	for i, step := range steps {
		w, g := want[i], got[i]
		if g.code != w.code {
			t.Errorf("%s: status %d, socd gave %d: %s", step, g.code, w.code, g.body)
		}
		if g.xcache != w.xcache {
			t.Errorf("%s: X-Cache %q, socd gave %q", step, g.xcache, w.xcache)
		}
		var gk []string
		for _, k := range g.keys {
			if k != "worker" && k != "jobs[].worker" {
				gk = append(gk, k)
			}
		}
		if strings.Join(gk, ",") != strings.Join(w.keys, ",") {
			t.Errorf("%s: JSON keys %v, socd gave %v", step, g.keys, w.keys)
		}
	}
	for _, i := range []int{0, 4, 5} { // result bodies and the cached job's stream
		if !bytes.Equal(got[i].body, want[i].body) {
			t.Errorf("%s: body %q, socd gave %q", steps[i], got[i].body, want[i].body)
		}
	}
}
