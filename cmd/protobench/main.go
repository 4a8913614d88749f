// Command protobench is Proto's end-to-end benchmark. For each workload it
// boots a Prototype 5 system (proto mode, default cache, queue and plug
// settings, AssetScale 8, SD card at latency scale 1, two simulated cores
// run on -threads host threads, 1 by default), drives it
// from outside through syscalls in kernel processes and sockets on the
// peer end of the NIC link, checks every output, and reports end-to-end
// metrics from an untraced run or per-layer metrics from a traced one.
// Each workload runs in a child process, so a wedged kernel cannot take
// the later workloads down with it.
//
//	go run . -seed 1 -out results.json                     # every workload
//	go run . -seed 1 -out results.json -trace trace.json   # ...and a traced run of each
//	go run . -workload sd_append -seed 7 -seconds 25       # one workload
//	go run . -workload rd_meta_churn -threads 2            # two host threads
//
// It prints each metric as "name=value unit" and ends with one JSON line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Measured  bool              `json:"measured"` // the window ran
	Layered   bool              `json:"layered"`  // per-layer counters were read
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Stalls    int               `json:"stalls"`
	StallDump string            `json:"stall_dump,omitempty"`
	Checks    []string          `json:"failed_checks,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Env       env               `json:"env"`
}

type env struct {
	Revision  string `json:"revision"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	MaxProcs  int    `json:"gomaxprocs"`
}

func newResult(cfg config) *Result {
	return &Result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Traced:   cfg.trace != "",
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
		Env:      currentEnv(),
	}
}

// absorb takes a finished run's failed checks and errors.
func (res *Result) absorb(r *run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.Checks = append(res.Checks, r.checks...)
	res.Errors = append(res.Errors, r.errs...)
	r.checks, r.errs = nil, nil
}

// finalize derives the fields that summarise the whole run.
func (res *Result) finalize() {
	res.Correct = len(res.Checks) == 0
	res.PerLayer["fail_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	res.PerLayer["stalls"] = metric{float64(res.Stalls), "count"}
}

func currentEnv() env {
	e := env{Revision: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				e.Revision += "+dirty"
			}
		}
	}
	return e
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: every workload)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every input the benchmark generates")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured window per workload, in seconds")
	flag.IntVar(&cfg.threads, "threads", 1, "host threads (GOMAXPROCS) the two simulated cores run on")
	flag.StringVar(&cfg.trace, "trace", "", "traced run: write spans to this file and report per-layer metrics")
	out := flag.String("out", "", "write the results as JSON to this file (stall dumps go beside it)")
	child := flag.Bool("child", false, "run one workload in this process and print its result as JSON")
	flag.Parse()
	if cfg.seconds < 1 || cfg.seconds > 600 {
		fatalf("-seconds %d: want 1..600", cfg.seconds)
	}
	if cfg.threads < 1 || cfg.threads > 64 {
		fatalf("-threads %d: want 1..64", cfg.threads)
	}
	if cfg.workload != "" && specNamed(cfg.workload) == nil {
		fatalf("unknown workload %q", cfg.workload)
	}
	cfg.dumpDir = "."
	if *out != "" {
		cfg.dumpDir = filepath.Dir(*out)
	}
	if *child {
		res := measure(cfg)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		// A stalled kernel leaves goroutines that never return: exit
		// without waiting for them.
		os.Exit(0)
	}

	var results []*Result
	if cfg.workload != "" {
		results = append(results, mustRun(cfg, *out))
	} else {
		for _, sp := range specs {
			c := cfg
			c.workload, c.trace = sp.name, ""
			plain := mustRun(c, *out)
			results = append(results, plain)
			if cfg.trace == "" {
				continue
			}
			c.trace = strings.TrimSuffix(cfg.trace, ".json") + "." + sp.name + ".json"
			traced := mustRun(c, *out)
			results = append(results, traced)
			fmt.Printf("# %s trace overhead: ops_s %.6g traced vs %.6g untraced (%.1f%%)\n", sp.name,
				traced.EndToEnd["ops_s"].Value, plain.EndToEnd["ops_s"].Value,
				100*(1-ratio(traced.EndToEnd["ops_s"].Value, plain.EndToEnd["ops_s"].Value)))
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "results": results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fatalf("results: %v", err)
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		m := res.EndToEnd
		if res.Traced {
			m = res.PerLayer
		}
		for name, v := range m {
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			line.Metrics[name] = v
		}
	}
	if line.Attempted < 1 {
		fatalf("no op was attempted")
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", blob)
}

// mustRun measures one workload in a child process and prints its
// metrics; a run that produced no metrics ends the benchmark.
func mustRun(cfg config, out string) *Result {
	res, err := runChild(cfg, out)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(os.Stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "protobench: %s: %s\n", res.Workload, e)
	}
	if !res.Measured || (res.Traced && !res.Layered) {
		fatalf("%s: no metrics: the run failed before its window completed", res.Workload)
	}
	return res
}

// runChild re-executes this binary on one workload, killing it if it
// outlives the window by more than the set-up, stall and shutdown budget.
func runChild(cfg config, out string) (*Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-threads", strconv.Itoa(cfg.threads)}
	if cfg.trace != "" {
		args = append(args, "-trace", cfg.trace)
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	limit := time.Duration(cfg.seconds)*time.Second + 120*time.Second
	select {
	case err := <-waited:
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	case <-time.After(limit):
		_ = cmd.Process.Kill() // the Wait below reaps it either way
		<-waited
		return nil, fmt.Errorf("%s: killed after %v", cfg.workload, limit)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		last = sc.Bytes()
	}
	var res Result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", cfg.workload, err)
	}
	return &res, nil
}

func printResult(w io.Writer, res *Result) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%t correct=%t attempted=%d failed=%d stalls=%d revision=%s %s nproc=%d gomaxprocs=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Correct, res.Attempted, res.Failed, res.Stalls,
		res.Env.Revision, res.Env.GoVersion, res.Env.NumCPU, res.Env.MaxProcs)
	if res.StallDump != "" {
		fmt.Fprintf(w, "# stall dump: %s\n", res.StallDump)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", c)
	}
	for _, m := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for _, name := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(w, "%s=%s %s\n", name, strconv.FormatFloat(m[name].Value, 'g', -1, 64), m[name].Unit)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "protobench: "+format+"\n", args...)
	os.Exit(1)
}
