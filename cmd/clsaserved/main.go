// Command clsaserved is the clsacim evaluation daemon: it holds one
// concurrency-safe Engine and serves it over HTTP/JSON (package serve),
// so remote sweeps share a single bounded compile cache instead of
// recompiling per process.
//
// Usage:
//
//	clsaserved                                   # defaults on :8080
//	clsaserved -addr :9090 -workers 8 -cache-limit 128
//	clsaserved -timeout 30s -max-batch 512 -validate
//	clsaserved -config arch.json                 # engine base Config from JSON
//	clsaserved -admit "evaluate=32:64:500ms,batch=4"  # load shedding
//	clsaserved -degrade                          # deadline → coarse fallback
//	clsaserved -faults "seed=7,error=0.05"       # chaos testing only
//	clsaserved -import net.onnx -import other.json   # serve imported models
//
// Endpoints: POST /v1/evaluate, POST /v1/evaluate/batch,
// POST /v1/stream, GET /v1/models, GET /v1/stats, GET /healthz. See
// docs/serving.md for the wire schema, curl examples, and the
// resilience model (admission control, panic recovery, degraded mode).
//
// -faults injects deterministic faults (latency spikes, errors, handler
// panics, connection drops) into the request path for resilience
// testing; the CLSA_FAULTS environment variable provides the default
// spec. Never enable it on a production daemon.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and gives
// in-flight requests -shutdown-grace to finish before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	clsacim "clsacim"
	"clsacim/internal/faultinject"
	"clsacim/serve"
)

// options collects the daemon's flag values.
type options struct {
	addr       string
	workers    int
	cacheLimit int
	timeout    time.Duration
	maxBatch   int
	grace      time.Duration
	validate   bool
	degrade    bool
	configPath string
	admitSpec  string
	faultsSpec string
	imports    importFlags
}

// importFlags collects a repeatable -import flag.
type importFlags []string

func (f *importFlags) String() string { return strings.Join(*f, ",") }

func (f *importFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "batch evaluation workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.cacheLimit, "cache-limit", 64, "max cached compilations, LRU-evicted beyond (0 = unbounded)")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "per-request handling deadline (0 = none)")
	flag.IntVar(&o.maxBatch, "max-batch", serve.DefaultMaxBatch, "max requests per batch call")
	flag.DurationVar(&o.grace, "shutdown-grace", 10*time.Second, "drain time for in-flight requests on SIGTERM")
	flag.BoolVar(&o.validate, "validate", false, "revalidate every streamed execution with the stream checker (timelines are always checked)")
	flag.BoolVar(&o.degrade, "degrade", false, "serve coarse degraded results when a request deadline is too tight (engine-wide WithDegradation)")
	flag.StringVar(&o.configPath, "config", "", "JSON file with the engine's base clsacim.Config (architecture defaults)")
	flag.StringVar(&o.admitSpec, "admit", "", `admission gates per endpoint class, e.g. "evaluate=32:64:500ms,batch=4:8:1s,stream=2" (class=concurrency[:queue[:wait]])`)
	flag.StringVar(&o.faultsSpec, "faults", os.Getenv("CLSA_FAULTS"),
		`CHAOS TESTING: fault-injection spec, e.g. "seed=7,error=0.05,panic=0.01,drop=0.01,latency=0.2:1ms:50ms" (default $CLSA_FAULTS)`)
	flag.Var(&o.imports, "import", "graph file (clsacim-graph/v1 JSON or .onnx) to register at startup; repeatable")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "clsaserved:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	for _, path := range o.imports {
		m, err := clsacim.ImportModel(path, clsacim.ModelOptions{})
		if err != nil {
			return err
		}
		if err := clsacim.RegisterModel(m.Name, m); err != nil {
			return err
		}
		log.Printf("clsaserved: imported model %q from %s", m.Name, path)
	}
	opts := []clsacim.Option{clsacim.WithCacheLimit(o.cacheLimit)}
	if o.configPath != "" {
		b, err := os.ReadFile(o.configPath)
		if err != nil {
			return err
		}
		var cfg clsacim.Config
		if err := json.Unmarshal(b, &cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", o.configPath, err)
		}
		opts = append(opts, clsacim.WithConfig(cfg))
	}
	if o.workers > 0 {
		opts = append(opts, clsacim.WithWorkers(o.workers))
	}
	if o.validate {
		opts = append(opts, clsacim.WithValidation())
	}
	if o.degrade {
		opts = append(opts, clsacim.WithDegradation())
	}
	eng, err := clsacim.New(opts...)
	if err != nil {
		return err
	}
	srvOpts := []serve.Option{
		serve.WithRequestTimeout(o.timeout),
		serve.WithMaxBatch(o.maxBatch),
	}
	if o.admitSpec != "" {
		gates, err := serve.ParseAdmission(o.admitSpec)
		if err != nil {
			return err
		}
		for class, lim := range gates {
			srvOpts = append(srvOpts, serve.WithAdmission(class, lim))
		}
	}
	if o.faultsSpec != "" {
		cfg, err := faultinject.Parse(o.faultsSpec)
		if err != nil {
			return err
		}
		inj, err := faultinject.NewInjector(cfg)
		if err != nil {
			return err
		}
		srvOpts = append(srvOpts, serve.WithMiddleware(inj.Middleware))
		log.Printf("clsaserved: FAULT INJECTION ACTIVE (%s) — not for production", o.faultsSpec)
	}
	handler, err := serve.New(eng, srvOpts...)
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then give
	// in-flight evaluations the grace window to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("clsaserved: listening on %s (cache limit %d, timeout %v)", o.addr, o.cacheLimit, o.timeout)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // bind failure etc.; never nil from ListenAndServe
	case <-ctx.Done():
	}
	stop()
	log.Printf("clsaserved: shutting down (grace %v)", o.grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("clsaserved: bye")
	return nil
}
