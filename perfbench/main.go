// Command perfbench is the repository's benchmark: it runs one named
// workload of the MLFS system, a fixed amount of work sized from
// --seconds, checks the program's outputs against properties the method
// must have, and prints one JSON object as the last line of standard
// output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with no instrumentation inside the timed region. With --trace 1 the
// same inputs run once plain and once through timing wrappers around
// the layers' public entry points; the object then carries the
// per-layer metrics, the wrapped run's results must equal the plain
// run's bit for bit, and the wall-time difference between the two is
// reported as the tracing overhead.
//
// Any failed output check prints the reason on standard error and exits
// with status 1 without a result line. README.md documents the
// workloads, the metrics and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// corrupt names a deliberate corruption of the program's output,
	// applied just before the output checks; the run must then fail.
	// It exists to show that the checks bite.
	corrupt string
	// outDir is where a workload may write files (journals, spans).
	outDir string
}

type workload func(opts options) (*report, error)

var workloads = map[string]workload{
	"mlfs-testbed": runTestbed,
	"philly-mlfh":  runPhilly,
	"serve-mixed":  runServe,
}

func main() {
	name := flag.String("workload", "", "workload name (mlfs-testbed | philly-mlfh | serve-mixed)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	corrupt := flag.String("corrupt", "", "self-test: corrupt the output before checking it (drop-job | journal-line)")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for journals and span files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail("unknown workload %q (known: %v)", *name, names)
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		fail("--trace must be 0 or 1")
	}
	if *corrupt != "" && *corrupt != "drop-job" && *corrupt != "journal-line" {
		fail("unknown --corrupt %q (drop-job | journal-line)", *corrupt)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("%v", err)
	}
	rep, err := run(options{seed: *seed, seconds: *seconds, trace: *traced == 1, corrupt: *corrupt, outDir: *out})
	if err != nil {
		fail("%s: %v", *name, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
