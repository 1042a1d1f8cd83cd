package bench

import (
	"syscall"
	"time"
)

// The host this benchmark runs on is shared, and its speed for this code
// changes with what the other tenants do: a run's raw times moved by 15-20%
// between runs minutes apart. Every end-to-end time is therefore
// calibrated against a reference chunk, a fixed loop of goroutine handoffs,
// the simulation kernel's own hot operation. The benchmark times a chunk
// before every measured op and after the last, on the same CPU (bench/run.sh
// pins the benchmark and every process it starts to one CPU), and scales
// the session's raw times by the chunks' mean:
//
//	calibrated = raw × refNominal / mean(reference chunks)
//
// A calibrated time is the time the op would take on a host where one
// chunk takes refNominal. The loop is the benchmark's own code, so a change
// to the program moves calibrated times while a slower host moves the
// chunks with the ops. The soc sessions time their chunks in the session's
// child process; the service sessions in the client, between requests.
//
// Calibration tracks the host for code that, like the loop, spends its time
// handing off between goroutines and chasing pointers. It tracked the
// compiled RTL evaluator only to within 6-10% (see bench/README.md,
// Measured spread), which is why RTL cosimulation is a probe and not a
// workload.

// refRoundTrips is one reference chunk: this many handoff round trips
// between two goroutines over unbuffered channels, about 1.4 ms.
const refRoundTrips = 2000

// refNominal is the nominal CPU time of one reference chunk: 0.7 µs per
// round trip, this loop's typical speed on the host of bench/README.md.
const refNominal = 1400 * time.Microsecond

// reference runs reference chunks on a partner goroutine that lives until
// Close.
type reference struct {
	ping, pong, done chan struct{}
}

func newReference() *reference {
	r := &reference{ping: make(chan struct{}), pong: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for range r.ping {
			r.pong <- struct{}{}
		}
	}()
	return r
}

// time runs one chunk and returns the CPU time it took in ns. CPU time,
// unlike wall time, leaves out other processes sharing the CPU meanwhile,
// such as an idle socd collecting its garbage between two requests, but
// not the host running this CPU slower.
func (r *reference) time() int64 {
	t := cpuNs()
	for i := 0; i < refRoundTrips; i++ {
		r.ping <- struct{}{}
		<-r.pong
	}
	return cpuNs() - t
}

// Close stops the partner goroutine and waits for it to exit.
func (r *reference) Close() {
	close(r.ping)
	<-r.done
}

// cpuNs is the CPU time this process has used, in ns.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calibration is the factor that turns a raw time measured among the
// given reference chunks (ns) into a calibrated one.
func calibration(refs ...int64) float64 {
	var sum float64
	for _, r := range refs {
		sum += float64(r)
	}
	return float64(refNominal.Nanoseconds()) * float64(len(refs)) / sum
}
