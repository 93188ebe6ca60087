package pts

import (
	"context"
	"fmt"
	"os"

	"pts/internal/core"
	"pts/internal/pvm"
	"pts/internal/pvm/nettrans"
)

// Transport selects how a real-time run passes messages between the
// master, TSW and CLW tasks. The zero value (and the default) is the
// in-process transport: every task is a goroutine of the calling
// process. A NetMaster's Transport runs the identical protocol across
// OS processes over TCP.
type Transport struct {
	t pvm.Transport
}

// InProcessTransport returns the default transport explicitly. Like
// every explicit transport it implies WithRealTime — pass no transport
// at all for virtual-time runs.
func InProcessTransport() Transport { return Transport{t: pvm.InProcess()} }

// NetMaster is the master side of a distributed run: a TCP listener
// plus a registry of joined worker processes, each contributing machine
// slots with a declared relative speed — the heterogeneity knobs the
// simulated cluster expresses as machine speed factors. One NetMaster
// hosts one Solve; create it ahead of time (rather than via WithListen)
// when you need the bound address before workers can dial in.
type NetMaster struct {
	m *nettrans.Master
}

// ListenMaster binds addr immediately and starts accepting worker
// joins in the background; the Solve using its Transport starts once
// `workers` workers have joined. Use ":0" to let the OS pick a port and
// Addr to discover it.
func ListenMaster(addr string, workers int) (*NetMaster, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pts: a distributed run needs at least 1 worker, got %d", workers)
	}
	m, err := nettrans.Listen(nettrans.MasterConfig{Addr: addr, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &NetMaster{m: m}, nil
}

// Addr returns the bound listen address.
func (n *NetMaster) Addr() string { return n.m.Addr() }

// WorkerInfo describes one registered worker process: its
// cluster-unique Name, declared relative Speed, machine-slot Capacity,
// and whether it is Busy hosting a run rather than idle in the lobby.
type WorkerInfo = nettrans.NodeInfo

// Workers lists the currently registered worker processes — waiting in
// the lobby before a run, or claimed by the running one (including
// workers absorbed mid-run by an adaptive job).
func (n *NetMaster) Workers() []WorkerInfo { return n.m.Nodes() }

// Transport returns the master as a Solve transport (WithTransport).
func (n *NetMaster) Transport() Transport { return Transport{t: n.m} }

// Close releases the listener and drops idle worker connections. Solve
// closes the master itself after a run; Close is for abandoning one
// that never ran.
func (n *NetMaster) Close() error { return n.m.Close() }

// WithTransport selects the message-passing transport of a real-time
// run. Implies WithRealTime: the virtual runtime is single-process by
// construction (its determinism is the point), so combining a network
// transport with WithVirtualTime is a configuration error.
func WithTransport(t Transport) Option {
	return func(s *settings) { s.transport = t.t }
}

// WithListen makes the run distributed with this process as the
// master: listen on addr, wait until `workers` worker processes joined
// (pts.Worker, or `pts -worker`), then run the master/TSW/CLW protocol
// across them, with every joined node hosting its share of the workers.
// Implies WithRealTime. The listener lives for the one Solve call.
func WithListen(addr string, workers int) Option {
	return func(s *settings) { s.listen = &listenConfig{addr: addr, workers: workers} }
}

// WithJoin makes this Solve call a worker of someone else's run: join
// the master at addr (retrying with backoff while it is unreachable),
// host this node's share of TSW/CLW tasks for one job, and return the
// same Result the master computed. The problem passed to Solve must be
// built from the same inputs as the master's — it is fingerprinted and
// the job refused on mismatch. Search options are the master's;
// WithNode declares this node's registry entry.
func WithJoin(addr string) Option {
	return func(s *settings) { s.join = addr }
}

// WithNode declares this process's worker registry entry for WithJoin:
// a cluster-unique name (default "<hostname>:<pid>"), the node's
// relative speed factor recorded in the master registry and used to
// scale emulated work (default 1.0), and how many machine slots the
// node contributes to round-robin task placement (default 1).
func WithNode(name string, speed float64, capacity int) Option {
	return func(s *settings) {
		s.node = NodeOptions{Name: name, Speed: speed, Capacity: capacity}
	}
}

// WithWorkScale makes real-time runs emulate machine speed: every
// modeled work charge of s reference seconds sleeps s*scale/speed wall
// seconds on its node, so nodes with different declared speeds finish
// rounds at different times — the regime the half-sync adaptation
// targets. 0 (the default) makes modeled work free in real time.
func WithWorkScale(scale float64) Option {
	return func(s *settings) { s.cfg.WorkScale = scale }
}

// listenConfig is WithListen's pending master setup.
type listenConfig struct {
	addr    string
	workers int
}

// workerConfig resolves n into the nettrans registry entry and
// connection settings of a worker joining addr for `jobs` jobs,
// defaulting the name to "<hostname>:<pid>".
func (n NodeOptions) workerConfig(addr string, jobs int) nettrans.WorkerConfig {
	name := n.Name
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	return nettrans.WorkerConfig{
		Addr:     addr,
		Name:     name,
		Speed:    n.Speed,
		Capacity: n.Capacity,
		Jobs:     jobs,
		Drain:    n.Drain,
		Logf:     n.Logf,
	}
}

// Worker runs a distributed-run worker daemon: join the master at
// addr, host tasks for `jobs` jobs (0 = until ctx cancels), and hand
// each job's final Result — the same outcome the master's Solve
// returns — to onJob (which may be nil). This is WithJoin's
// long-running sibling, for dedicated worker processes like
// `pts -worker`, and the worker side of a ListenServer fleet.
//
// p may be non-nil — one fixed problem, built from the same inputs as
// the master's (it is fingerprinted and jobs refused on mismatch) — or
// nil, in which case the worker constructs each job's problem on
// demand from the built-in workload named in the job's payload, as
// multi-job fleets require.
func Worker(ctx context.Context, p Problem, addr string, node NodeOptions, jobs int, onJob func(*Result)) error {
	var deliver func(*core.Result)
	if onJob != nil {
		deliver = func(r *core.Result) { onJob(resultFromCore(r)) }
	}
	opts := core.WorkerOptions{WorkerConfig: node.workerConfig(addr, jobs)}
	if p == nil {
		opts.Resolve = resolveSpec
	}
	return core.ServeWorker(ctx, p, opts, deliver)
}

// NodeOptions is Worker's registry entry; WithNode sets its Name,
// Speed and Capacity for a WithJoin call.
type NodeOptions struct {
	// Name uniquely identifies the node (default "<hostname>:<pid>").
	Name string
	// Speed is the node's relative speed factor (default 1.0).
	Speed float64
	// Capacity is the node's machine-slot count (default 1).
	Capacity int
	// Drain, when non-nil, requests graceful shutdown when it becomes
	// receivable (close it): the worker deregisters from the master —
	// finishing cleanly if idle, having its in-flight tasks written off
	// like a loss but in an orderly fashion if mid-job — and Worker
	// returns nil instead of reconnecting. This is how `pts -worker`
	// and fleet workers honor SIGTERM.
	Drain <-chan struct{}
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

// joinSolve runs the worker side of a distributed Solve.
func joinSolve(ctx context.Context, p Problem, st settings) (*Result, error) {
	res, err := core.JoinWorker(ctx, p, core.WorkerOptions{WorkerConfig: st.node.workerConfig(st.join, 0)})
	if err != nil {
		return nil, err
	}
	return resultFromCore(res), nil
}
