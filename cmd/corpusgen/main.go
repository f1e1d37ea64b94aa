// Command corpusgen generates a synthetic web corpus (the 1.68-billion-
// page substitute) and writes it in the tab-separated format consumed by
// probase-build.
//
// Usage:
//
//	corpusgen -sentences 50000 -scale 1 -seed 11 -o corpus.tsv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/corpus"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("corpusgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sentences = fs.Int("sentences", 50000, "number of sentences to generate")
		scale     = fs.Float64("scale", 1, "world expansion scale")
		seed      = fs.Int64("seed", 11, "PRNG seed")
		out       = fs.String("o", "corpus.tsv", "output file ('-' for stdout)")
		version   = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(stdout, "corpusgen")
		return nil
	}

	w := corpus.DefaultWorld(*scale)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: *sentences, Seed: *seed}).Generate()

	write := func(w io.Writer) error {
		_, err := c.WriteTo(w)
		return err
	}
	if *out == "-" {
		if err := write(stdout); err != nil {
			return err
		}
	} else if err := atomicfile.Write(*out, 0o644, write); err != nil {
		return err
	}
	st := w.Stats()
	fmt.Fprintf(stderr, "corpusgen: %d sentences over world with %d concepts, %d instances\n",
		len(c.Sentences), st.Concepts, st.Instances)
	return nil
}
