package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"clsacim"
	"clsacim/client"
	"clsacim/serve"
)

// The serve workload drives the daemon over a real loopback socket: an
// in-process serve.Server answers serveCallers closed-loop callers,
// each waiting for its reply before sending the next request (the
// pattern of examples/remote_sweep). The traffic follows the
// repository's own callers over the BENCH_solver.json key space at 26
// sets, every model alike, as cmd/clsaload cycles its models: per
// model, serveBatches /v1/evaluate/batch requests of all the model's
// rows (the per-model batch examples/remote_sweep sends) and
// singlesPerBatch single /v1/evaluate requests per batch (cmd/clsaload's
// four single evaluations per batch), which cover the model's rows once.

const (
	serveCallers    = 2
	serveBatches    = 3
	singlesPerBatch = 4
	// serveCacheLimit is clsaserved's default -cache-limit. It holds
	// the traffic's 56 compile keys (8 models x 7 keys), which set-up
	// compiles, so the timed phase serves from the cache. Below 56
	// this evenly spread traffic thrashes the LRU (README.md, "Serve
	// cache bound").
	serveCacheLimit = 64
	// importedFile is the graph file the set-up imports; the imported
	// model's rows are checked against importedBase's.
	importedFile = "internal/importer/testdata/tinyyolov4.json"
	importedBase = "tinyyolov4"
)

// importSeq numbers the imports of the process.
var importSeq atomic.Int64

// serveOp is one request of the cycle: a single row or a whole
// model's batch.
type serveOp struct {
	reqs []clsacim.Request
	refs []solverRow
}

type serveW struct {
	eng    *clsacim.Engine
	srv    *http.Server
	done   chan error
	hc     *http.Client
	cli    *client.Client
	ops    []serveOp
	gm     float64
	tr     atomic.Pointer[tracer]
	closed bool
}

func setupServe(ctx context.Context, e *env) (workload, error) {
	rows, err := readSolver(e.root)
	if err != nil {
		return nil, err
	}
	// Import the graph file under its own name, as clsaserved -import
	// does; the model registry is process-wide, so every set-up
	// registers a fresh name.
	imported := fmt.Sprintf("%s-imported-%d", importedBase, importSeq.Add(1))
	f, err := os.Open(filepath.Join(e.root, importedFile))
	if err != nil {
		return nil, err
	}
	id := e.tr.begin("importer.Import", -1, -1)
	m, err := clsacim.ImportModelReader(imported, f, clsacim.ModelOptions{})
	e.tr.end(id)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("importing %s: %w", importedFile, err)
	}
	if err := clsacim.RegisterModel(imported, m); err != nil {
		return nil, err
	}

	// The models in payload order, then the imported copy of
	// importedBase, which is checked against importedBase's rows.
	byModel := make(map[string][]solverRow)
	type served struct{ name, ref string }
	var models []served
	for _, r := range rows {
		if byModel[r.Model] == nil {
			models = append(models, served{r.Model, r.Model})
		}
		byModel[r.Model] = append(byModel[r.Model], r)
	}
	if byModel[importedBase] == nil {
		return nil, fmt.Errorf("BENCH_solver.json has no rows for %s", importedBase)
	}
	models = append(models, served{imported, importedBase})
	s := &serveW{done: make(chan error, 1)}
	var prime []serveOp
	for _, m := range models {
		refs := byModel[m.ref]
		batch := serveOp{refs: refs}
		for _, r := range refs {
			req, err := solverRequest(m.name, r.Sched, r.Solver)
			if err != nil {
				return nil, err
			}
			batch.reqs = append(batch.reqs, req)
		}
		for i := 0; i < serveBatches; i++ {
			s.ops = append(s.ops, batch)
		}
		for i := 0; i < serveBatches*singlesPerBatch; i++ {
			j := i % len(refs)
			s.ops = append(s.ops, serveOp{reqs: batch.reqs[j : j+1], refs: refs[j : j+1]})
		}
		prime = append(prime, batch)
	}

	s.eng, err = clsacim.New(clsacim.WithValidation(), clsacim.WithCacheLimit(serveCacheLimit))
	if err != nil {
		return nil, err
	}
	h, err := serve.New(s.eng, serve.WithLogger(func(string, ...any) {}))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: s.outermost(h), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.hc = &http.Client{Transport: &spanTransport{base: &http.Transport{
		MaxConnsPerHost:     serveCallers,
		MaxIdleConnsPerHost: serveCallers,
	}}}
	s.cli, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(s.hc))
	if err != nil {
		s.close()
		return nil, err
	}
	// Prime the cache with one batch per model: every key of the
	// traffic once, verified, which also yields the geomean.
	var all []int64
	for _, op := range prime {
		evs, err := s.send(ctx, op, -1, nil)
		if err == nil {
			err = verifyServe(op, evs)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
		for _, ev := range evs {
			all = append(all, ev.Result.MakespanCycles)
		}
	}
	s.gm = geomean(all)
	// One untimed warm-up op of the timed mix.
	if _, err := s.run(ctx, 0, -1, nil); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *serveW) cycle() int                 { return len(s.ops) }
func (s *serveW) callers() int               { return serveCallers }
func (s *serveW) geomean() float64           { return s.gm }
func (s *serveW) engineStats() clsacim.Stats { return s.eng.Stats() }

// close shuts the server down, waits for its accept loop to return and
// drops the client's idle connections.
func (s *serveW) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	defer s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// spanHeader carries the op and client span ids of a traced request to
// the server side.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// spanTransport tags a traced request with its client span.
type spanTransport struct{ base http.RoundTripper }

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, v)
	}
	return t.base.RoundTrip(r)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// outermost wraps the whole server: on a traced request it records the
// handler span and the response size.
func (s *serveW) outermost(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		tag := r.Header.Get(spanHeader)
		if tr == nil || tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		opStr, parentStr, _ := strings.Cut(tag, "/")
		op, _ := strconv.Atoi(opStr)
		parent, _ := strconv.Atoi(parentStr)
		id := tr.begin("serve.handler", op, int32(parent))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.end(id)
		tr.add("serve.resp_bytes", float64(cw.n))
	})
}

// send issues op as a single or batch request and returns the
// evaluations in row order.
func (s *serveW) send(ctx context.Context, op serveOp, opID int, tr *tracer) ([]*serve.Evaluation, error) {
	id := tr.begin("client.call", opID, -1)
	if tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, fmt.Sprintf("%d/%d", opID, id))
	}
	var evs []*serve.Evaluation
	var err error
	if len(op.reqs) == 1 {
		var ev *serve.Evaluation
		ev, err = s.cli.Evaluate(ctx, op.reqs[0])
		evs = []*serve.Evaluation{ev}
	} else {
		var res []serve.BatchResult
		res, err = s.cli.EvaluateBatch(ctx, op.reqs)
		for i, r := range res {
			if r.Error != "" && err == nil {
				err = fmt.Errorf("batch item %d: %s", i, r.Error)
			}
			evs = append(evs, r.Evaluation)
		}
	}
	tr.end(id)
	if err != nil {
		tr.add("serve.failed", 1)
		return nil, err
	}
	return evs, nil
}

func verifyServe(op serveOp, evs []*serve.Evaluation) error {
	if len(evs) != len(op.refs) {
		return fmt.Errorf("%d evaluations for %d requests", len(evs), len(op.refs))
	}
	for i, ev := range evs {
		ref := op.refs[i]
		if ev == nil {
			return fmt.Errorf("%s %s %s: no evaluation", op.reqs[i].Model, ref.Sched, ref.Solver)
		}
		var m mismatch
		m.int("makespan", ev.Result.MakespanCycles, ref.Makespan)
		m.float("speedup", ev.Speedup, ref.Speedup)
		m.float("utilization", ev.Result.Utilization, ref.Utilization)
		if err := m.err(fmt.Sprintf("%s %s %s", op.reqs[i].Model, ref.Sched, ref.Solver)); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveW) run(ctx context.Context, k, opID int, tr *tracer) (time.Duration, error) {
	if tr != nil && s.tr.Load() != tr {
		s.tr.Store(tr)
	}
	t0 := time.Now()
	evs, err := s.send(ctx, s.ops[k], opID, tr)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return lat, verifyServe(s.ops[k], evs)
}
