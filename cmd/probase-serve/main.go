// Command probase-serve exposes a taxonomy snapshot as a long-lived
// HTTP query service. The snapshot (either flavour written by
// probase-build) is loaded once at startup; every request is answered
// from memory through a sharded hot-query cache. See the package docs
// of internal/server for the endpoint contract.
//
// Usage:
//
//	probase-serve -snapshot probase.bin -addr :8080
//
// Then:
//
//	curl 'localhost:8080/v1/instances?concept=companies&k=5'
//	curl 'localhost:8080/v1/conceptualize?terms=China,India,Brazil'
//	curl 'localhost:8080/metrics'
//
// Observability: logs are structured (-log-format json|text, -log-level),
// every response carries an X-Request-ID header, /metrics serves
// Prometheus text exposition (including probase_snapshot_* health
// gauges for the served taxonomy), /v1/admin/stats serves the full
// taxstats health profile as JSON, -slowlog enables a sampled
// slow-query log, and -pprof-addr starts a separate net/http/pprof
// listener.
//
// Tracing: -trace-sample and/or -trace-slow turn on per-request spans
// with W3C traceparent propagation; kept traces (head-sampled, slow, or
// errored) land in a ring buffer served as JSON or an HTML waterfall on
// the pprof listener's /debug/traces. Log records for traced requests
// carry trace_id/span_id, and latency histogram buckets carry trace-ID
// exemplars in the OpenMetrics exposition.
//
// Storage: -mmap serves PBC2 graph-only snapshots zero-copy out of a
// memory mapping instead of decoding them onto the heap (see FORMATS.md
// for the layout that makes this possible); full PBFL snapshots cannot
// be mapped and fall back to the heap load with a warning. SIGHUP — or POST
// /v1/admin/reload — hot-swaps the snapshot from the same path without
// dropping in-flight requests; the old mapping is released only after
// its last reader finishes. See OPERATIONS.md for the full runbook.
//
// On SIGINT/SIGTERM the listener closes and in-flight requests drain
// (bounded by -drain) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/window"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "probase-serve:", err)
		os.Exit(1)
	}
}

// run loads the snapshot and serves until ctx is cancelled (or the
// listener fails). When ready is non-nil, the bound address is sent on
// it once the server accepts connections — tests bind to port 0 and
// need to learn the port.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("probase-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		snapPath    = fs.String("snapshot", "probase.bin", "taxonomy snapshot from probase-build")
		useMmap     = fs.Bool("mmap", false, "serve the snapshot zero-copy out of a memory mapping (PBC2 graph-only snapshots; others fall back to a heap load)")
		addr        = fs.String("addr", ":8080", "listen address")
		shards      = fs.Int("cache-shards", 16, "hot-query cache shards (rounded up to a power of two)")
		perShard    = fs.Int("cache-per-shard", 512, "max cached responses per shard")
		reqTO       = fs.Duration("request-timeout", 5*time.Second, "per-request deadline")
		drain       = fs.Duration("drain", 10*time.Second, "shutdown drain window for in-flight requests")
		maxK        = fs.Int("max-k", 1000, "cap on the k query parameter")
		logFormat   = fs.String("log-format", "text", "log output format: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		slowlog     = fs.Duration("slowlog", 0, "log requests slower than this threshold (0 disables)")
		slowEvery   = fs.Int("slowlog-every", 1, "sample 1 in N slow requests")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof and /debug/traces on this address (empty disables)")
		traceSample = fs.Float64("trace-sample", 0, "head-sample this fraction of requests into /debug/traces (0 disables head sampling)")
		traceSlow   = fs.Duration("trace-slow", 0, "always keep traces of requests slower than this (0 disables the tail rule)")
		traceBuf    = fs.Int("trace-buf", 256, "kept traces ring-buffer capacity")
		sloFile     = fs.String("slo-file", "", "traffic-SLO config (probase-traffic-slo/v1 JSON) for the in-server burn-rate engine; empty uses the built-in default")
		failInject  = fs.Int("fail-inject", 0, "TESTING ONLY: fail every Nth query request with a synthetic 500 (0 disables)")
		version     = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(stderr, "probase-serve")
		return nil
	}
	logger := obs.NewLogger(stderr, *logFormat, obs.ParseLevel(*logLevel))
	logger.Info("starting", "binary", "probase-serve", "version", obs.Version().String())

	openSnap := snapshot.Open
	if *useMmap {
		openSnap = snapshot.OpenMapped
	}
	start := time.Now()
	pb, err := openSnap(*snapPath)
	if err != nil {
		return err
	}
	logger.Info("snapshot loaded",
		"path", *snapPath,
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"nodes", pb.Graph.NumNodes(),
		"edges", pb.Graph.NumEdges(),
		"mapped", pb.Mapped())
	if *useMmap && !pb.Mapped() {
		logger.Warn("mmap requested but snapshot cannot be served zero-copy; loaded onto the heap instead",
			"path", *snapPath, "format", pb.Format)
	}

	sloCfg := window.DefaultSLOConfig()
	if *sloFile != "" {
		sloCfg, err = window.LoadSLOConfig(*sloFile)
		if err != nil {
			return err
		}
		logger.Info("traffic SLO loaded", "path", *sloFile,
			"target", sloCfg.AvailabilityTarget, "rules", len(sloCfg.BurnRules))
	}
	if *failInject > 0 {
		logger.Warn("fault injection enabled — every Nth query request will 500",
			"every", *failInject)
	}
	srv := server.New(pb, server.Config{
		CacheShards:          *shards,
		CacheEntriesPerShard: *perShard,
		RequestTimeout:       *reqTO,
		MaxK:                 *maxK,
		SLO:                  sloCfg,
		FailInject:           *failInject,
		// Hot reload (POST /v1/admin/reload or SIGHUP) re-opens the same
		// path in the same storage mode; the old mapping is released only
		// after its last in-flight request finishes.
		Reloader: func() (*core.Probase, error) { return openSnap(*snapPath) },
	})
	if fi, err := os.Stat(*snapPath); err == nil {
		size := float64(fi.Size())
		srv.Metrics().Registry().GaugeFunc("probase_snapshot_bytes",
			"Size of the loaded taxonomy snapshot file in bytes.",
			func() float64 { return size })
	}
	// Tracing is on when either retention rule is: head sampling by
	// rate, or the tail "always keep slow traces" rule. Kept traces are
	// browsable on the pprof listener's /debug/traces.
	var tracer *obs.Tracer
	if *traceSample > 0 || *traceSlow > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			BufferSize:    *traceBuf,
		})
		logger.Info("tracing enabled",
			"sample", *traceSample, "slow", traceSlow.String(), "buffer", *traceBuf)
	}
	httpSrv := &http.Server{
		Handler: obs.Middleware(srv.Handler(), obs.MiddlewareConfig{
			Logger:        logger,
			SlowThreshold: *slowlog,
			SlowEvery:     *slowEvery,
			Tracer:        tracer,
		}),
		ReadHeaderTimeout: 5 * time.Second,
		// The handler enforces its own per-request deadline; these bound
		// pathological clients.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		logger.Info("pprof listening", "addr", pln.Addr().String())
		debugMux := http.NewServeMux()
		debugMux.Handle("/", obs.PprofHandler())
		if tracer != nil {
			debugMux.Handle("/debug/traces", tracer.Handler())
		}
		go func() {
			pprofSrv := &http.Server{Handler: debugMux, ReadHeaderTimeout: 5 * time.Second}
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Warn("pprof server exited", "err", err.Error())
			}
		}()
	}

	// SIGHUP hot-reloads the snapshot through the same path as POST
	// /v1/admin/reload: load the new file, swap it in, and release the
	// old mapping only after its last in-flight request drains. A failed
	// reload logs and keeps the previous snapshot serving. Registered
	// before the listener is announced so a reload signal can never hit
	// the default terminate-on-SIGHUP disposition.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

serveLoop:
	for {
		select {
		case err := <-errc:
			return err
		case <-hup:
			reloadStart := time.Now()
			npb, err := srv.Reload()
			if err != nil {
				logger.Error("SIGHUP reload failed; previous snapshot still serving",
					"path", *snapPath, "err", err.Error())
				continue
			}
			logger.Info("snapshot reloaded",
				"trigger", "SIGHUP",
				"path", *snapPath,
				"elapsed", time.Since(reloadStart).Round(time.Millisecond).String(),
				"nodes", npb.Graph.NumNodes(),
				"edges", npb.Graph.NumEdges(),
				"mapped", npb.Mapped())
		case <-ctx.Done():
			break serveLoop
		}
	}
	logger.Info("shutdown requested, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// Serve returns ErrServerClosed after a clean Shutdown.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("stopped")
	return nil
}
