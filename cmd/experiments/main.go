// Command experiments regenerates every table and figure of the paper's
// evaluation. Run all of them, or pick one with -exp:
//
//	experiments                  # everything
//	experiments -exp table9      # one experiment
//	experiments -exp fig4 -samples 50 -sheets 2
//	experiments -exp fig13 -scale 8
//	experiments -list            # print the available experiments
//
// Experiments: table1..table12, fig4, fig6, fig7, fig12, fig13, ablation,
// a14, security, robustness, serving, failover, autoscale, overload,
// isolation, defense, gray, partition. The last eight are the serving
// drills examples/server also runs, at its own flag values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"freepart.dev/freepart/internal/report"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (empty = all)")
	list := flag.Bool("list", false, "print the available experiments, sorted, and exit")
	samples := flag.Int("samples", 8, "random partitionings per K (fig4/a14)")
	sheets := flag.Int("sheets", 2, "OMR sheets per measurement run")
	scale := flag.Int("scale", 8, "input image scale for overhead runs (fig13)")
	maxK := flag.Int("maxk", 12, "largest partition count in the fig4 sweep")
	requests := flag.Int("requests", 64, "request-stream length for the serving experiment")
	jsonOut := flag.String("json", "", "write the selected bench experiment's rows as JSON to this path")
	flag.Parse()

	runners := buildRunners(runnerOpts{
		samples: *samples, sheets: *sheets, scale: *scale, maxK: *maxK,
		requests: *requests, jsonOut: *jsonOut,
	})

	if *list {
		printExperiments(os.Stdout, runners)
		return
	}
	if *exp != "" {
		fn, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *exp)
			printExperiments(os.Stderr, runners)
			os.Exit(2)
		}
		run(*exp, fn)
		return
	}
	for _, name := range sortedKeys(runners) {
		run(name, runners[name])
	}
}

// runnerOpts carries the flag values the parameterized experiments need.
type runnerOpts struct {
	samples, sheets, scale, maxK, requests int
	jsonOut                                string
}

// buildRunners is the single registry of experiments, shared by -list, -exp
// dispatch, and the run-everything default.
func buildRunners(o runnerOpts) map[string]func() (string, error) {
	return map[string]func() (string, error){
		"table1":     report.Table1,
		"table2":     report.Table2,
		"table3":     report.Table3,
		"table4":     report.Table4,
		"table5":     report.Table5,
		"table6":     report.Table6,
		"table7":     report.Table7,
		"table8":     report.Table8,
		"table9":     func() (string, error) { return report.Table9(o.sheets) },
		"table10":    report.Table10,
		"table11":    report.Table11,
		"table12":    report.Table12,
		"fig4":       func() (string, error) { return report.Fig4(4, o.maxK, o.samples, o.sheets) },
		"fig6":       report.Fig6,
		"fig7":       report.Fig7,
		"fig12":      report.Fig12,
		"fig13":      func() (string, error) { return report.Fig13(o.scale) },
		"ablation":   func() (string, error) { return report.Ablation(o.sheets) },
		"a14":        func() (string, error) { return report.A14(o.samples, o.sheets) },
		"security":   report.SecurityMatrix,
		"robustness": func() (string, error) { return report.TableRobustness(5, o.sheets) },
		"serving":    func() (string, error) { return report.TableServing(o.requests, o.jsonOut) },
		"failover":   func() (string, error) { return report.TableFailover(o.requests, o.jsonOut) },
		"autoscale":  func() (string, error) { return report.TableAutoscale(o.jsonOut) },
		"overload":   func() (string, error) { return report.TableOverload(o.jsonOut) },
		"isolation":  func() (string, error) { return report.TableIsolation(o.jsonOut) },
		"defense":    func() (string, error) { return report.TableDefense(o.jsonOut) },
		"gray":       func() (string, error) { return report.TableGray(o.requests, o.jsonOut) },
		"partition":  func() (string, error) { return report.TablePartition(o.jsonOut) },
	}
}

// printExperiments writes the available experiment names, sorted, one per
// line — the single listing both -list and the unknown -exp error use, so
// the two can't drift.
func printExperiments(w io.Writer, m map[string]func() (string, error)) {
	for _, n := range sortedKeys(m) {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

func sortedKeys(m map[string]func() (string, error)) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func run(name string, fn func() (string, error)) {
	fmt.Printf("=== %s ===\n", name)
	out, err := fn()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Println(out)
}
