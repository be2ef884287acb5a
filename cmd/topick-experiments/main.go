// Command topick-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	topick-experiments -all            # every experiment (trains 8 stand-ins)
//	topick-experiments -fig 8          # one figure
//	topick-experiments -table 2        # one table
//	topick-experiments -quick -all     # reduced scale (2 models, short runs)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tokenpicker/internal/bench"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (2,3,4,8,9,10)")
		table     = flag.Int("table", 0, "table number to regenerate (1,2)")
		all       = flag.Bool("all", false, "regenerate everything")
		ablations = flag.Bool("ablations", false, "run the design-choice ablation suite")
		quick     = flag.Bool("quick", false, "reduced scale (subset of models, short training)")
	)
	flag.Parse()

	opts := bench.Full()
	if *quick || os.Getenv("TOPICK_QUICK") != "" {
		opts = bench.Quick()
	}
	if !*all && *fig == 0 && *table == 0 && !*ablations {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *all || *table == 1 {
		run("table 1", func() { bench.Table1().Fprint(os.Stdout) })
	}
	if *all || *table == 2 {
		run("table 2", func() { bench.Table2().Fprint(os.Stdout) })
	}
	if *all || *fig == 2 {
		run("fig 2", func() {
			t, _ := bench.Fig2()
			t.Fprint(os.Stdout)
		})
	}
	if *all || *fig == 3 {
		run("fig 3", func() {
			t, _ := bench.Fig3(opts)
			t.Fprint(os.Stdout)
		})
	}
	if *all || *fig == 4 {
		run("fig 4", func() {
			t, _ := bench.Fig4(opts)
			t.Fprint(os.Stdout)
		})
	}
	if *all || *fig == 8 {
		run("fig 8", func() {
			t, _ := bench.Fig8(opts)
			t.Fprint(os.Stdout)
		})
	}
	if *all || *fig == 9 {
		run("fig 9", func() {
			t, _ := bench.Fig9(opts, nil, 0.5)
			t.Fprint(os.Stdout)
		})
	}
	if *all || *fig == 10 {
		run("fig 10", func() {
			speed, en, _ := bench.Fig10(opts)
			speed.Fprint(os.Stdout)
			en.Fprint(os.Stdout)
		})
	}
	if *all || *ablations {
		run("ablations", func() {
			for _, t := range bench.Ablations(opts) {
				t.Fprint(os.Stdout)
			}
		})
	}
}
