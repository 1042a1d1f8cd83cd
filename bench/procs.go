package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ProcessStarter starts clusters from the socd and socgw binaries in
// binDir, on ephemeral loopback ports: a serve cluster is one
// `socd -workers 2` (default queue 16, cache 128); a fleet is a socgw
// with two `socd -workers 1` workers, the same compute capacity.
//
// The fleet workers admit 64 queued jobs instead of 16. The gateway adds
// one to a worker's depth per dispatch and learns the true depth only
// from the next heartbeat, a second later; a second of fast sims and
// static checks from one client can pass 16 and is then refused with 429
// "fleet saturated", although no worker ever holds more than one job.
// With one closed-loop client the larger queue changes nothing else.
func ProcessStarter(binDir string) Starter {
	socd, socgw := filepath.Join(binDir, "socd"), filepath.Join(binDir, "socgw")
	return func(fleet bool) (*Cluster, error) {
		ps := &procs{}
		fail := func(err error) (*Cluster, error) {
			ps.stop()
			return nil, err
		}
		if !fleet {
			addr, err := ps.start(socd, 1, "-addr", "127.0.0.1:0", "-workers", "2")
			if err != nil {
				return fail(err)
			}
			return &Cluster{URL: "http://" + addr[0], Stop: ps.stop}, nil
		}
		gw, err := ps.start(socgw, 2, "-addr", "127.0.0.1:0", "-worker-addr", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		for _, name := range []string{"w1", "w2"} {
			if _, err := ps.start(socd, 1, "-addr", "127.0.0.1:0", "-workers", "1", "-queue", "64", "-gateway", gw[1], "-name", name); err != nil {
				return fail(err)
			}
		}
		return &Cluster{URL: "http://" + gw[0], Stop: ps.stop}, nil
	}
}

// procs owns the daemon processes of one cluster.
type procs struct {
	list []*proc
}

type proc struct {
	cmd     *exec.Cmd
	drained chan struct{} // closed once stdout reaches EOF
}

// start launches a daemon and reads the addresses it announces on its
// first lines of stdout ("listening on <addr>", "workers on <addr>").
func (ps *procs) start(bin string, lines int, args ...string) ([]string, error) {
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	ps.list = append(ps.list, p)
	r := bufio.NewReader(out)
	var addrs []string
	for i := 0; i < lines; i++ {
		line, err := r.ReadString('\n')
		_, addr, ok := strings.Cut(strings.TrimSpace(line), " on ")
		if err != nil || !ok {
			close(p.drained)
			return nil, fmt.Errorf("%s: no address line: %q %v", filepath.Base(bin), line, err)
		}
		addrs = append(addrs, addr)
	}
	go func() {
		io.Copy(io.Discard, r)
		close(p.drained)
	}()
	return addrs, nil
}

// stop reads every daemon's peak resident set, drains it with SIGTERM
// (SIGKILL after 30 s) and waits for it to exit. It returns the summed
// peak in KB.
func (ps *procs) stop() (int64, error) {
	var kb int64
	var errs []error
	for _, p := range ps.list {
		hwm, err := peakRSSKB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(p.cmd.Path), err))
		}
		kb += hwm
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range ps.list {
		kill := time.AfterFunc(30*time.Second, func() { p.cmd.Process.Kill() })
		<-p.drained
		if err := p.cmd.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(p.cmd.Path), err))
		}
		kill.Stop()
	}
	ps.list = nil
	return kb, errors.Join(errs...)
}

// peakRSSKB reads a process's peak resident set (VmHWM) in KB; pid may be
// "self". The rusage that Wait returns is no substitute: Go starts a child
// on its parent's address space until exec, and Linux keeps that space's
// peak as the child's ru_maxrss, so every daemon would report at least
// socbench's own peak.
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}
