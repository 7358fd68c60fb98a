// Command benchmark is the repository's performance benchmark: four mixed
// control/data workloads driven through one in-process L25GC core, 10
// gated end-to-end metrics, per-layer probes and a traced run. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed: subscriber order, flow order, think-time jitter")
		seconds = flag.Float64("seconds", 20, "measured window in seconds")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "", "append each run's result to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal("need -seconds > 0 and -trace 0 or 1")
	}
	var todo []*workload
	if *wlName == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		wl, err := workloadByName(*wlName)
		if err != nil {
			fatal("%v", err)
		}
		todo = []*workload{wl}
	}

	printEnv(*seed, *seconds)
	ok := true
	for _, wl := range todo {
		var res *runResult
		var err error
		if *traced == 1 {
			res, err = runTraced(wl, *seed, *seconds)
		} else {
			res, err = runWorkload(wl, *seed, defaultOpts(*seconds))
		}
		if err != nil {
			fatal("%s: %v", wl.Name, err)
		}
		printResult(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal("%v", err)
			}
		}
		ok = ok && res.Correct
		// The machine-readable line comes last on standard output.
		fmt.Println(res.line())
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func printEnv(seed int64, seconds float64) {
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds)
	fmt.Println("# traffic is in-process: no NIC, no real link, no loopback socket on N3/N6 (N2 is the AMF's loopback listener)")
}

// commit reads the checked-out commit from .git, when there is one (the
// driver's checkout is not a git repository).
func commit() string {
	for _, dir := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(dir, ".git", ref))
			if err != nil {
				return "unknown"
			}
			h = strings.TrimSpace(string(b))
		}
		if len(h) > 12 {
			h = h[:12]
		}
		return h
	}
	return "none"
}

func printResult(r *runResult) {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s, seed %d, %gs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricIndex[names[i]] < metricIndex[names[j]] })
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Printf("  %-28s %16.4f %-6s %s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Flags {
		fmt.Printf("  FLAG  %s\n", f)
	}
	for _, c := range r.Checks {
		fmt.Printf("  FAILED CHECK  %s\n", c)
	}
}

// line renders the contract's result object: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit.
func (r *runResult) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	if obj.Attempted < 1 {
		obj.Attempted = 1
	}
	for n, m := range r.Metrics {
		obj.Metrics[n] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		fatal("encode result: %v", err)
	}
	return string(b)
}

// resultFile is what -out accumulates and -compare reads: any number of
// runs, typically one or more sets of the four workloads.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []*runResult      `json:"runs"`
}

func appendResult(path string, r *runResult) error {
	var f resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Env = map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "commit": commit(),
	}
	f.Runs = append(f.Runs, r)
	b, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
