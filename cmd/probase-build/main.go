// Command probase-build runs the full Probase pipeline over a corpus file
// (iterative extraction -> taxonomy construction -> probabilistic
// annotation) and writes a binary taxonomy snapshot.
//
// Usage:
//
//	probase-build -corpus corpus.tsv -o probase.bin [-scale 1] [-rounds 12] [-full]
//	probase-build -base probase.bin -corpus delta.tsv -o probase.bin   (incremental)
//
// The -scale flag must match the scale the corpus was generated with; the
// expanded world is used as the plausibility model's training oracle (the
// role WordNet plays in the paper). With -full, Γ (evidence and
// co-occurrence statistics) is persisted alongside the graph, together
// with the resumable build state a later -base run extends from.
//
// With -base, the corpus file is treated as a *delta* — only the
// sentences appended since the base snapshot was built — and the
// pipeline re-scores just the dirty set the delta touches. The output is
// byte-identical to a from-scratch build over the concatenated corpus.
// The base must be a -full snapshot (it carries the extraction
// checkpoint, merge state and model counts); -scale and the taxonomy
// settings must match the base build's.
//
// Human progress (per-round extraction counters with an ETA, merge-stage
// timings, the final summary) goes to stderr so stdout stays clean for
// piping; -quiet suppresses it. With -stats-out the same telemetry is
// written as a machine-readable JSON report ("-" for stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "probase-build:", err)
		os.Exit(1)
	}
}

// statsReport is the -stats-out document: per-stage pipeline telemetry
// plus the build's inputs and outputs, so one file answers "what did
// this build do and how long did each algorithm take".
type statsReport struct {
	Build         obs.BuildInfo    `json:"build"`
	Corpus        string           `json:"corpus"`
	Sentences     int              `json:"sentences"`
	Parsed        int              `json:"parsed"`
	Rounds        int              `json:"rounds"`
	Pairs         int64            `json:"pairs"`
	Concepts      int64            `json:"concepts"`
	GraphNodes    int              `json:"graph_nodes"`
	GraphEdges    int              `json:"graph_edges"`
	TotalSeconds  float64          `json:"total_seconds"`
	Stages        []obs.StageStats `json:"stages"`
	Trace         *traceSummary    `json:"trace,omitempty"`
	SnapshotPath  string           `json:"snapshot_path"`
	SnapshotBytes int64            `json:"snapshot_bytes"`
	// Delta is present on -base builds: the incremental work actually
	// done (dirty roots/labels/pairs, reused state, Algorithm 3 seeds).
	Delta *core.DeltaStats `json:"delta,omitempty"`
	Base  string           `json:"base,omitempty"`
}

// traceSummary is the build trace rendered for the report: every stage
// and round as a span, tagged with the paper algorithm it implements,
// so the report joins span timings to Algorithms 1-3 directly.
type traceSummary struct {
	TraceID    string      `json:"trace_id"`
	DurationUS int64       `json:"duration_us"`
	Spans      []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name       string            `json:"name"`
	Algorithm  string            `json:"algorithm,omitempty"`
	OffsetUS   int64             `json:"offset_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// summarizeTrace flattens a finished build trace into the report shape.
func summarizeTrace(td obs.TraceData) *traceSummary {
	ts := &traceSummary{
		TraceID:    td.TraceID,
		DurationUS: td.DurationUS,
		Spans:      make([]traceSpan, 0, len(td.Spans)),
	}
	for _, sp := range td.Spans {
		ts.Spans = append(ts.Spans, traceSpan{
			Name:       sp.Name,
			Algorithm:  obs.AlgorithmForStage(sp.Name),
			OffsetUS:   sp.OffsetUS,
			DurationUS: sp.DurationUS,
			Attrs:      sp.Attrs,
		})
	}
	return ts
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("probase-build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		corpusPath = fs.String("corpus", "corpus.tsv", "corpus file from corpusgen")
		out        = fs.String("o", "probase.bin", "output snapshot path")
		scale      = fs.Float64("scale", 1, "world scale used when generating the corpus")
		rounds     = fs.Int("rounds", 0, "max extraction rounds (0 = default)")
		workers    = fs.Int("workers", 0, "worker pool size for all parallel build stages (0 = GOMAXPROCS)")
		full       = fs.Bool("full", false, "also persist Γ (evidence, co-occurrence) and the resumable build state")
		basePath   = fs.String("base", "", "delta mode: extend this -full snapshot over the (delta-only) corpus")
		quiet      = fs.Bool("quiet", false, "suppress progress output on stderr")
		statsOut   = fs.String("stats-out", "", "write a JSON build report to this file ('-' for stdout)")
		version    = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(stdout, "probase-build")
		return nil
	}

	progress := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format, a...)
		}
	}
	stats := obs.NewStatsCollector()
	reporters := obs.MultiReporter{stats}
	if !*quiet {
		reporters = append(reporters, obs.NewProgressReporter(stderr, "probase-build"))
	}
	// A build is one trace: the -stats-out report includes every stage
	// and round as spans tagged with the algorithm they implement.
	var spanRep *obs.SpanReporter
	if *statsOut != "" {
		tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, BufferSize: 4})
		spanRep = obs.NewSpanReporter(tracer, "probase-build")
		reporters = append(reporters, spanRep)
	}
	var reporter obs.StageReporter = reporters
	progress("probase-build: %s\n", obs.Version())

	f, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	sentences, err := corpus.ReadSentences(f)
	f.Close()
	if err != nil {
		return err
	}
	inputs := make([]extraction.Input, len(sentences))
	for i, s := range sentences {
		inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
	}

	w := corpus.DefaultWorld(*scale)
	cfg := core.Config{
		Oracle: func(x, y string) (bool, bool) {
			if !w.KnownTerm(x) || !w.KnownTerm(y) {
				return false, false
			}
			return w.IsTrueIsA(x, y), true
		},
		Reporter: reporter,
	}
	cfg.Extraction.MaxRounds = *rounds
	cfg.Workers = *workers

	start := time.Now()
	var pb *core.Probase
	if *basePath != "" {
		bf, err := os.Open(*basePath)
		if err != nil {
			return err
		}
		base, err := core.LoadFull(bf)
		bf.Close()
		if err != nil {
			return fmt.Errorf("loading base snapshot: %w", err)
		}
		pb, err = core.DeltaBuild(base, inputs, cfg)
		if err != nil {
			return fmt.Errorf("delta build: %w", err)
		}
	} else {
		var err error
		pb, err = core.Build(inputs, cfg)
		if err != nil {
			return err
		}
	}

	save := pb.Save
	if *full {
		save = pb.SaveFull
	}
	// Replace -o atomically: a server may have the old snapshot mapped.
	saveStart := time.Now()
	reporter.StageStart(obs.StageSnapshotSave)
	if err := atomicfile.Write(*out, 0o644, save); err != nil {
		return err
	}
	reporter.StageEnd(obs.StageSnapshotSave, time.Since(saveStart))
	elapsed := time.Since(start)

	st := pb.Store.Stats()
	if *basePath != "" {
		d := pb.Info.Delta
		progress(
			"probase-build: delta over %s: %d dirty roots, %d/%d labels re-merged, %d pairs retrained, %d alg3 seeds\n",
			*basePath, d.DirtyRoots, d.DirtyLabels, d.DirtyLabels+d.ReusedLabels, d.DirtyPairs, d.DirtySeeds)
	}
	progress(
		"probase-build: %d sentences parsed, %d rounds, %d pairs, %d concepts; taxonomy %d nodes / %d edges; %v\n",
		pb.Info.Parsed, len(pb.Info.Rounds), st.Pairs, st.Supers,
		pb.Graph.NumNodes(), pb.Graph.NumEdges(), elapsed.Round(time.Millisecond))

	if *statsOut != "" {
		report := statsReport{
			Build:        obs.Version(),
			Corpus:       *corpusPath,
			Sentences:    len(sentences),
			Parsed:       pb.Info.Parsed,
			Rounds:       len(pb.Info.Rounds),
			Pairs:        st.Pairs,
			Concepts:     int64(st.Supers),
			GraphNodes:   pb.Graph.NumNodes(),
			GraphEdges:   pb.Graph.NumEdges(),
			TotalSeconds: elapsed.Seconds(),
			Stages:       stats.Stages(),
			SnapshotPath: *out,
		}
		if *basePath != "" {
			d := pb.Info.Delta
			report.Delta = &d
			report.Base = *basePath
		}
		if spanRep != nil {
			if td, ok := spanRep.Finish(); ok {
				report.Trace = summarizeTrace(td)
			}
		}
		if fi, err := os.Stat(*out); err == nil {
			report.SnapshotBytes = fi.Size()
		}
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding stats report: %w", err)
		}
		raw = append(raw, '\n')
		if *statsOut == "-" {
			_, err = stdout.Write(raw)
		} else {
			err = atomicfile.Write(*statsOut, 0o644, func(w io.Writer) error {
				_, err := w.Write(raw)
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("writing stats report: %w", err)
		}
	}
	return nil
}
