// Command socctl is the client for the socd job daemon — and,
// unchanged, for the socgw fleet gateway, which speaks the same HTTP
// API: submit jobs, watch their streamed progress, and fetch results
// over plain HTTP.
//
//	socctl -addr localhost:9090 submit -kind sim -test memcpy -wait
//	socctl submit -kind stallhunt -stall 0.3 -messages 200 -seeds 8 -watch
//	socctl submit -spec '{"kind":"lint","test":"badcdc"}'
//	socctl lint -gals conv1d
//	socctl rateck badrate
//	socctl verify -depth 16 mcserdes
//	socctl watch job-3
//	socctl result job-3
//	socctl jobs
//	socctl metrics
//	socctl health
//
// A submission is content-addressed: resubmitting an identical spec is
// served byte-identically from the daemon's result cache (the response
// carries "cached": true / an X-Cache: hit header).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: socctl [-addr host:port] <command> [args]

commands:
  submit   submit a job spec (flags or -spec JSON); -wait blocks for the
           result, -watch streams NDJSON progress then prints the result
  lint, rateck, verify [-mode m] [-gals] [-depth k] <design>
           run one analysis pass (design rules, communication rates,
           bounded model check) on one design: submit that job kind,
           stream its progress, print the report; -depth is verify's
           unrolling bound
  watch    stream a job's NDJSON progress events; exits 1 if the stream
           ends before the job does
  result   fetch a finished job's result body
  jobs     list jobs in submission order
  metrics  dump the daemon's stats snapshot (serve/* namespace; a socgw
           gateway adds the fleet/* namespace)
  workers  list a socgw gateway's registered workers and their load
  health   query /healthz
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:9090", "socd address")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(base, args)
	case "watch":
		err = cmdWatch(base, args)
	case "result":
		err = cmdGet(base, args, "/jobs/%s/result")
	case "jobs":
		err = cmdPlain(base + "/jobs")
	case "metrics":
		err = cmdPlain(base + "/metrics")
	case "workers":
		err = cmdPlain(base + "/workers")
	case "health":
		err = cmdPlain(base + "/healthz")
	default:
		p, ok := analysis.Lookup(cmd)
		if !ok {
			usage()
		}
		err = cmdCheck(base, p, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "socctl:", err)
		os.Exit(1)
	}
}

func cmdSubmit(base string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	specJSON := fs.String("spec", "", "raw spec JSON (overrides the field flags)")
	kind := fs.String("kind", "sim", "job kind: sim|lint|rateck|verify|stallhunt|qor|fig6")
	test := fs.String("test", "", "SoC test / lint design name")
	mode := fs.String("mode", "", "channel model: tlm|signal|rtl")
	gals := fs.Bool("gals", false, "per-partition clock generators")
	maxCycles := fs.Uint64("maxcycles", 0, "cycle budget (0 = kind default)")
	stall := fs.Float64("stall", 0, "stall-injection probability")
	seed := fs.Int64("seed", 0, "stall / campaign seed")
	messages := fs.Int("messages", 0, "stallhunt messages per producer")
	seeds := fs.Int("seeds", 0, "stallhunt campaign width")
	parallel := fs.Int("parallel", 0, "campaign shard width (not part of the content hash)")
	depth := fs.Int("depth", 0, "verify unrolling bound (0 = kind default)")
	wait := fs.Bool("wait", false, "block until the job finishes and print its result")
	watch := fs.Bool("watch", false, "stream progress events, then print the result")
	fs.Parse(args)

	spec := []byte(*specJSON)
	if *specJSON == "" {
		var err error
		spec, err = json.Marshal(serve.Spec{
			Kind: *kind, Test: *test, Mode: *mode, GALS: *gals,
			MaxCycles: *maxCycles, Stall: *stall, Seed: *seed,
			Messages: *messages, Seeds: *seeds, Parallel: *parallel,
			Depth: *depth,
		})
		if err != nil {
			return err
		}
	}

	url := base + "/jobs"
	if *wait && !*watch {
		url += "?wait=1"
	}
	body, err := readReply(http.Post(url, "application/json", bytes.NewReader(spec)))
	if err != nil {
		return err
	}
	writeBody(os.Stdout, body)
	if !*watch {
		return nil
	}
	reply, err := decodeSubmit(body)
	if err != nil {
		return err
	}
	if err := streamEvents(base, reply.ID); err != nil {
		return err
	}
	return fetch(base+"/jobs/"+reply.ID+"/result", os.Stdout)
}

// cmdCheck is the one-shot front door for every analysis pass: it
// submits a job of the pass's kind for the named design, streams the
// daemon's NDJSON progress, and prints the report. A resubmission hits
// the content-addressed cache byte-identically, so it is cheap to rerun
// after every edit.
func cmdCheck(base string, p analysis.Pass, args []string) error {
	fs := flag.NewFlagSet(p.Name, flag.ExitOnError)
	mode := fs.String("mode", "", "channel model: tlm|signal|rtl")
	galsCk := fs.Bool("gals", false, "per-partition clock generators")
	depth := 0
	if p.Depth {
		fs.IntVar(&depth, "depth", 0, "unrolling bound (0 = server default)")
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: socctl %s [flags] <design>", p.Name)
	}
	spec, err := json.Marshal(serve.Spec{
		Kind: p.Name, Test: fs.Arg(0), Mode: *mode, GALS: *galsCk, Depth: depth,
	})
	if err != nil {
		return err
	}
	body, err := readReply(http.Post(base+"/jobs", "application/json", bytes.NewReader(spec)))
	if err != nil {
		return err
	}
	reply, err := decodeSubmit(body)
	if err != nil {
		return err
	}
	// A cached repeat is already done — skip the stream, which would
	// otherwise just replay the recorded events, and print the result.
	if reply.Cached {
		fmt.Printf("cached result (job %s):\n", reply.ID)
		return fetch(base+"/jobs/"+reply.ID+"/result", os.Stdout)
	}
	fmt.Printf("submitted job %s\n", reply.ID)
	if err := streamEvents(base, reply.ID); err != nil {
		return err
	}
	return fetch(base+"/jobs/"+reply.ID+"/result", os.Stdout)
}

// readReply returns a response's body, or the daemon's refusal as an
// error.
func readReply(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return nil, fmt.Errorf("%s (Retry-After: %ss): %s", resp.Status, ra, strings.TrimSpace(string(body)))
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// submitReply is the part of a POST /jobs reply socctl reads.
type submitReply struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

func decodeSubmit(body []byte) (submitReply, error) {
	var r submitReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decoding submit reply: %v", err)
	}
	if r.ID == "" {
		return r, fmt.Errorf("no job id in response %s", body)
	}
	return r, nil
}

func cmdWatch(base string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: socctl watch <job-id>")
	}
	return streamEvents(base, args[0])
}

func streamEvents(base, id string) error {
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	start := time.Now()
	ended := false
	for sc.Scan() {
		fmt.Printf("[%7.3fs] %s\n", time.Since(start).Seconds(), sc.Text())
		var e serve.Event
		ended = json.Unmarshal(sc.Bytes(), &e) == nil && e.Terminal()
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !ended {
		// The daemon keeps every job's whole log, so a stream cut short
		// means it went away mid-job.
		return fmt.Errorf("stream of %s ended before a terminal event", id)
	}
	return nil
}

func cmdGet(base string, args []string, pattern string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: socctl result <job-id>")
	}
	return fetch(base+fmt.Sprintf(pattern, args[0]), os.Stdout)
}

func cmdPlain(url string) error { return fetch(url, os.Stdout) }

func fetch(url string, w io.Writer) error {
	body, err := readReply(http.Get(url))
	if err != nil {
		return err
	}
	writeBody(w, body)
	return nil
}

// writeBody writes body, ending it with a newline.
func writeBody(w io.Writer, body []byte) {
	w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Fprintln(w)
	}
}
