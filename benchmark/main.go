// Command benchmark is the repository's benchmark: four workloads
// driven through a real rlzd child process over loopback HTTP, every
// response checked against the generated corpus, end-to-end metrics
// with regression bounds (BENCHMARK.json) and, in a traced run,
// per-layer numbers taken from outside each layer. README.md has the
// metric tables and the conventions.
//
// Usage (from the repository root):
//
//	go run ./benchmark                         # one set: all four workloads
//	go run ./benchmark -workload static-cold   # one workload
//	go run ./benchmark -workload live-mixed -trace 1
//	go run ./benchmark -repeat 5               # five sets, spread per metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// config is one invocation's settings.
type config struct {
	scale   scale
	seconds float64
	trace   string // "" off, else the span file (one workload) or its directory marker "1"
	dataDir string
	rlzd    string
	clients int
}

// tracePath is where a traced run of one workload writes its spans.
func (c config) tracePath(workload string, seed int64) string {
	if c.trace != "1" {
		return c.trace
	}
	return filepath.Join(c.dataDir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the shape the
// benchmark driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// reporter writes the JSON lines of standard output.
type reporter struct {
	mu    sync.Mutex
	w     io.Writer
	units map[string]string
	quiet bool // -repeat prints its own table
}

func newReporter(w io.Writer) *reporter {
	units := make(map[string]string)
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return &reporter{w: w, units: units}
}

func (p *reporter) line(v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are passed
	}
	fmt.Fprintf(p.w, "%s\n", data)
}

func (p *reporter) metric(workload, name string, v float64, n int) {
	if p.quiet {
		return
	}
	p.line(struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Value    float64 `json:"value"`
		N        int     `json:"n"`
	}{workload, name, p.units[strings.TrimSuffix(name, ".raw")], v, n})
}

func (p *reporter) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// findRoot walks up from the working directory to the module root: `go
// run ./benchmark` starts there, `go test` starts in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module rlz\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "rlzd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the rlz module (no go.mod with cmd/rlzd above the working directory)")
		}
		dir = parent
	}
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a source checkout without .git
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs the whole set")
	seed := fs.Int64("seed", 1, "seed of the corpus and of every id and schedule generator")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time of one workload; the read-only phases fill their share of it")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run with per-layer metrics, spans under -dir; other: span file")
	dir := fs.String("dir", "", "directory for data and build output (default .bench_build in the repository)")
	rlzd := fs.String("rlzd", "", "rlzd binary to drive (default: build ./cmd/rlzd)")
	repeat := fs.Int("repeat", 0, "run this many sets back to back and print the spread of every metric")
	scaleName := fs.String("scale", "full", "full, or tiny for the smoke test")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as spec.go defines it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *printSpec {
		fmt.Fprintf(stdout, "%s\n", benchmarkJSON())
		return 0
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	cfg := config{scale: sc, seconds: *seconds, rlzd: *rlzd, clients: min(runtime.NumCPU(), 2)}
	if *trace != "0" && *trace != "" {
		cfg.trace = *trace
	}
	cfg.dataDir = *dir
	if cfg.dataDir == "" {
		cfg.dataDir = filepath.Join(root, ".bench_build")
	}
	if cfg.dataDir, err = filepath.Abs(cfg.dataDir); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return fail(err)
	}
	run := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return fail(err)
		}
		run = []workloadSpec{w}
	}
	if cfg.trace != "" && cfg.trace != "1" && len(run) != 1 {
		return fail(fmt.Errorf("-trace <file> needs -workload; use -trace 1 for a set"))
	}

	// Ctrl-C cancels the context; every phase checks it and the deferred
	// clean-up kills the daemon and removes the data.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.rlzd == "" {
		if cfg.rlzd, err = buildRlzd(ctx, root, cfg.dataDir); err != nil {
			return fail(err)
		}
	}
	out := newReporter(stdout)
	out.line(map[string]any{"header": map[string]any{
		"commit": commit(root), "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "fs": fsType(cfg.dataDir),
		"dir": cfg.dataDir, "seed": *seed, "seconds": cfg.seconds, "clients": cfg.clients,
		"traced": cfg.trace != "", "ops": sc,
	}})

	if *repeat > 0 {
		return repeatSets(ctx, cfg, run, *seed, *repeat, out)
	}
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range run {
		res, err := runWorkload(ctx, cfg, w, *seed, out)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		if len(run) == 1 {
			total = res
			break
		}
		out.line(map[string]any{"workload": w.Name, "result": res})
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.Name+"/"+k] = v
		}
	}
	out.line(total)
	if !total.Correct {
		return fail(fmt.Errorf("%d of %d operations failed", total.Failed, total.Attempted))
	}
	return 0
}
