package fleet

import (
	"context"
	"errors"
	"net"
	"sync"
	"time" //detvet:ok reconnect backoff and heartbeat cadence are wall-clock by design

	"repro/internal/fleet/wire"
	"repro/internal/serve"
)

// redial is the reconnect backoff after a lost gateway.
const redial = time.Second

// WorkerConfig wires one socd process into a fleet.
type WorkerConfig struct {
	Name      string                           // unique worker name (required)
	Gateway   string                           // gateway worker-port address to dial (required)
	Heartbeat time.Duration                    // load-report cadence (default 1s)
	Logf      func(format string, args ...any) // optional logger
}

// Worker is the fleet side of a socd daemon: it dials the gateway,
// registers, reports load via heartbeats, and bridges Submit frames
// onto the daemon's own admission queue (serve.Server.Submit). Job
// events stream back as Progress frames and the canonical result body
// as a Result frame; an admission shed becomes a Shed frame so the
// gateway reroutes instead of failing the job.
type Worker struct {
	srv *serve.Server
	cfg WorkerConfig
}

// NewWorker binds a fleet worker to a daemon's server. Run starts it.
func NewWorker(srv *serve.Server, cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, errors.New("fleet: worker needs a name")
	}
	if cfg.Gateway == "" {
		return nil, errors.New("fleet: worker needs a gateway address")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{srv: srv, cfg: cfg}, nil
}

// Run dials the gateway and serves one session after another — a lost
// connection is retried every second until ctx is canceled. Jobs
// already running on the local server keep running across reconnects;
// their results simply have no session to report to, which is fine:
// the gateway has already failed them over, and the local cache keeps
// the recomputation free.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.session(ctx); err != nil && ctx.Err() == nil {
			w.cfg.Logf("fleet: gateway session: %v (redial in %v)", err, redial)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(redial):
		}
	}
}

// workerSession is one live connection to the gateway.
type workerSession struct {
	w    *Worker
	conn net.Conn

	smu  sync.Mutex // serializes frame writes
	sbuf wire.Writer
}

func (ws *workerSession) send(m wire.Msg) error {
	ws.smu.Lock()
	defer ws.smu.Unlock()
	return wire.WriteMsg(ws.conn, &ws.sbuf, m)
}

func (w *Worker) session(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", w.cfg.Gateway)
	if err != nil {
		return err
	}
	ws := &workerSession{w: w, conn: conn}
	defer conn.Close()

	// Register and wait for the ack before accepting work.
	_, _, capacity, workers := w.srv.Load()
	if err := ws.send(&wire.Register{
		Name: w.cfg.Name, Capacity: uint32(capacity), Workers: uint32(workers),
	}); err != nil {
		return err
	}
	msg, scratch, err := wire.ReadMsg(conn, nil)
	if err != nil {
		return err
	}
	ack, ok := msg.(*wire.Ack)
	if !ok {
		return errors.New("fleet: gateway did not ack registration")
	}
	w.cfg.Logf("fleet: registered with %s as %s", ack.Gateway, w.cfg.Name)

	// The session dies with ctx: closing the conn unblocks the read loop.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.heartbeats(sctx)
	}()
	defer wg.Wait()
	go func() {
		<-sctx.Done()
		conn.Close()
	}()

	for {
		var m wire.Msg
		m, scratch, err = wire.ReadMsg(conn, scratch)
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.Submit:
			ws.accept(sctx, m)
		default:
			w.cfg.Logf("fleet: unexpected frame from gateway: %v", m.Type())
		}
	}
}

// heartbeats reports admission load until the session ends. The first
// beat goes out immediately so the gateway has load truth before the
// first dispatch.
func (ws *workerSession) heartbeats(ctx context.Context) {
	t := time.NewTicker(ws.w.cfg.Heartbeat)
	defer t.Stop()
	for {
		depth, inFlight, capacity, _ := ws.w.srv.Load()
		if err := ws.send(&wire.Heartbeat{
			Depth: uint32(depth), InFlight: uint32(inFlight), Capacity: uint32(capacity),
		}); err != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// accept bridges one Submit frame onto the local admission queue. The
// spec arrives in canonical form, so normalization is a no-op and the
// local content hash matches the gateway's routing key — the LRU cache
// the gateway is sharding for is keyed identically.
func (ws *workerSession) accept(ctx context.Context, m *wire.Submit) {
	spec, err := serve.ParseSpec(m.Spec)
	if err != nil {
		// A malformed spec is deterministic: report failure, don't shed.
		ws.send(&wire.Result{Job: m.Job, Status: wire.StatusFailed, Error: err.Error()})
		return
	}
	j, err := ws.w.srv.Submit(spec)
	if err != nil {
		var qf *serve.QueueFullError
		if errors.As(err, &qf) {
			depth, _, _, _ := ws.w.srv.Load()
			ws.send(&wire.Shed{
				Job: m.Job, RetryAfter: uint32(qf.RetryAfter), Depth: uint32(depth),
			})
			return
		}
		if errors.Is(err, serve.ErrDraining) {
			// Draining reads as a cancel: viable elsewhere, not here.
			ws.send(&wire.Result{Job: m.Job, Status: wire.StatusCanceled, Error: err.Error()})
			return
		}
		ws.send(&wire.Result{Job: m.Job, Status: wire.StatusFailed, Error: err.Error()})
		return
	}
	go ws.forward(ctx, m.Job, j)
}

// forward follows one job's event log, relaying each event as a
// Progress frame and the terminal one as a Result frame carrying the
// canonical body. A send failure or the session's end just stops the
// forwarder: the gateway will fail the job over.
func (ws *workerSession) forward(ctx context.Context, job string, j *serve.Job) {
	finished := false
	j.Follow(ctx, func(e serve.Event) bool {
		if e.Terminal() {
			finished = true
			return false
		}
		return ws.send(&wire.Progress{
			Job: job, Seq: uint32(e.Seq), Event: e.Event,
			Done: uint32(e.Done), Total: uint32(e.Total),
			Label: e.Label, Cached: e.Cached,
		}) == nil
	})
	if !finished {
		return
	}
	st, body := j.Snapshot()
	res := &wire.Result{Job: job, Cached: st.Cached, Error: st.Error, Body: body}
	switch st.Status {
	case "done":
		res.Status = wire.StatusDone
	case "canceled":
		res.Status = wire.StatusCanceled
	default:
		res.Status = wire.StatusFailed
	}
	ws.send(res)
}
