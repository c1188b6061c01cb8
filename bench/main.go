// Command bench is TriggerMan's one benchmark: four workloads, five
// gated end-to-end metrics and a per-layer ledger, measured by one
// harness that embeds triggerman.Open in its own process. README.md in
// this directory explains the workloads and metrics; BENCHMARK.json at
// the repository root is the contract the driver runs it by.
//
//	bash bench/run.sh -workload fanin_match -seed 1 -seconds 22 -trace 0
//	bash bench/run.sh -workload all -seed 1 -reps 5 -out set.json
//	bash bench/run.sh -compare bench/baseline/set1.json bench/baseline/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// driverResult is the object the driver reads from the last line of
// standard output.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records what the numbers depend on besides the code.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Drivers    int    `json:"drivers"`
	Filesystem string `json:"workdir_filesystem"`
	GitSHA     string `json:"git_sha"`
}

// runSet is the file -out writes and -compare reads: every run of a
// set, with the environment they ran in.
type runSet struct {
	Env     environment  `json:"env"`
	Seconds float64      `json:"seconds"`
	Runs    []*runOutput `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 22, "measured seconds per run, split 3:15:8:8 into warm-up, saturation and the two paced windows")
		traceOn  = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, harness spans, replay pass and sub-runs")
		quick    = flag.Bool("quick", false, "test scale: about 1,000 triggers, one measured second")
		breakOne = flag.Bool("selftest-break", false, "drop one terminal event in the consumer: the run must then fail")
		workdir  = flag.String("workdir", "", "directory for temporary files (default: .bench_build under the current directory)")
		traceOut = flag.String("trace-out", "", "keep the traced run's span file here (default: a temporary file, removed)")
		out      = flag.String("out", "", "with -workload all: write the set of runs to this file")
		reps     = flag.Int("reps", 1, "with -workload all: end-to-end runs per workload")
		compare  = flag.Bool("compare", false, "compare two set files given as arguments; exit non-zero on any worse")
		manifest = flag.String("manifest", "BENCHMARK.json", "with -compare: where the bounds are")
	)
	flag.Parse()
	// The load shape is fixed: two processors for two drivers, one
	// generator and one consumer; the collector at its default.
	runtime.GOMAXPROCS(2)

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareSets(flag.Arg(0), flag.Arg(1), *manifest, os.Stdout)
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload is required (one of", strings.Join(workloadNames, ", ")+", or all)")
		return 2
	}
	if *workdir == "" {
		*workdir = ".bench_build"
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *quick {
		*seconds = quickSeconds
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceOn == 1,
		quick: *quick, breakOne: *breakOne, workdir: *workdir, traceOut: *traceOut,
	}

	if *workload != "all" {
		// The driver stops a run at 180 s and then learns nothing. A run that
		// is still going at lastResort says on standard error where every
		// goroutine stands, and exits without a result.
		time.AfterFunc(lastResort, func() {
			fmt.Fprintf(os.Stderr, "bench: still running after %v; giving up. Goroutines:\n", lastResort)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			os.Exit(3)
		})
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		report(os.Stderr, res)
		line, _ := json.Marshal(driverResult{res.Correct, res.Attempted, res.Failed, res.driverMetrics()})
		fmt.Println(string(line))
		return exitCode(res)
	}

	// A set: every workload, reps end-to-end runs each and one traced run.
	set := runSet{Env: readEnvironment(*workdir), Seconds: *seconds}
	ok := true
	for _, name := range workloadNames {
		for rep := 0; rep <= *reps; rep++ {
			c := cfg
			c.workload, c.traced = name, rep == *reps
			res, err := runWorkload(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", name, err)
				return 2
			}
			report(os.Stderr, res)
			ok = ok && res.Correct
			set.Runs = append(set.Runs, res)
			// Give the next run the heap the first one had.
			debug.FreeOSMemory()
		}
	}
	body, _ := json.MarshalIndent(set, "", " ")
	if *out != "" {
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	} else {
		fmt.Println(string(body))
	}
	if !ok {
		return 1
	}
	return 0
}

// lastResort is when a run of one workload is given up. It lies after
// hardDeadline, which ends a stalled run in an orderly way where it can.
const lastResort = 160 * time.Second

// quickSeconds is the measured time of a -quick run: windows of about
// 300 ms.
const quickSeconds = 0.6

// driverMetrics are the metrics the driver's result line carries: every
// end-to-end metric of an untraced run, every per-layer one of a traced.
func (res *runOutput) driverMetrics() map[string]metric {
	if !res.Traced {
		return res.EndToEnd
	}
	return res.PerLayer
}

// exitCode is non-zero when an output check failed.
func exitCode(res *runOutput) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints one run for a person: every metric by name with its
// unit, the sample counts, and what failed.
func report(w *os.File, res *runOutput) {
	mode := "end-to-end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s inputs=%s correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.InputHash, res.Correct, res.Attempted, res.Failed)
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Fprintf(w, "  %-38s %14.4f %-6s %s\n", name, m.Value, m.Unit, res.Samples[name])
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

func readEnvironment(workdir string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Drivers: 2, GOGC: os.Getenv("GOGC"), Filesystem: filesystemOf(workdir), GitSHA: "unknown",
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(sha))
	}
	return env
}

// filesystemOf names the filesystem a directory is on, by its statfs
// magic number.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("statfs type %#x", uint32(st.Type))
}
