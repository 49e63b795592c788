package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Calibration shape: how many sets, and how many runs (each with its own
// seed) the median of a set is taken over.
const (
	calibSets = 6
	calibRuns = 5
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSelf runs one untraced run of this program in a fresh process, as
// the driver does, and returns its metrics.
func runSelf(workload string, seed uint64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var v verdict
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a verdict: %w", workload, seed, err)
	}
	if !v.Correct || v.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, v.Failed, v.Attempted)
	}
	out := make(map[string]float64, len(v.Metrics))
	for name, m := range v.Metrics {
		out[name] = m.Value
	}
	return out, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runCalibration measures how well the benchmark repeats on this tree and
// this machine: calibSets sets, each calibRuns runs of every workload, the
// set medians of every end-to-end metric, their largest pairwise
// difference and the widest quartile spread inside a set, as a markdown
// table. It fails when two set medians differ by more than half the
// metric's bound.
func runCalibration(w io.Writer) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "nproc %d, CPU %s, %s, %d sets of %d runs of %d s per workload\n\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), calibSets, calibRuns, bf.RunSeconds)
	fmt.Fprintln(w, "| workload | metric | bound | set medians | max pairwise diff | widest in-set IQR/median | IQR/median of all runs | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	// values[workload][metric][set] = the runs of one set. A set is
	// calibRuns runs of every workload, so the sets of one workload lie
	// minutes apart, as the driver's do.
	values := make(map[string]map[string][][]float64)
	for set := 0; set < calibSets; set++ {
		for _, wl := range bf.Workloads {
			fmt.Fprintf(os.Stderr, "calibrate: set %d of %d, %s\n", set+1, calibSets, wl.Name)
			if values[wl.Name] == nil {
				values[wl.Name] = make(map[string][][]float64)
			}
			for run := 0; run < calibRuns; run++ {
				m, err := runSelf(wl.Name, uint64(1000*set+run+1), bf.RunSeconds)
				if err != nil {
					return err
				}
				for name, v := range m {
					if values[wl.Name][name] == nil {
						values[wl.Name][name] = make([][]float64, calibSets)
					}
					values[wl.Name][name][set] = append(values[wl.Name][name][set], v)
				}
			}
		}
	}
	var failures []string
	for _, wl := range bf.Workloads {
		values := values[wl.Name]
		for _, md := range bf.EndToEnd {
			var medians, all []float64
			var spread float64
			for _, runs := range values[md.Name] {
				med := quantile(runs, 0.5)
				medians = append(medians, med)
				spread = max(spread, (quantile(runs, 0.75)-quantile(runs, 0.25))/med)
				all = append(all, runs...)
			}
			pooled := (quantile(all, 0.75) - quantile(all, 0.25)) / quantile(all, 0.5)
			lo, hi := quantile(medians, 0), quantile(medians, 1)
			diff := (hi - lo) / lo
			verdict := "ok"
			if diff > md.Bound/2 {
				verdict = "over half the bound"
				failures = append(failures, wl.Name+"/"+md.Name)
			}
			fmt.Fprintf(w, "| %s | %s | %.1f %% | %s | %.2f %% | %.2f %% | %.2f %% | %s |\n",
				wl.Name, md.Name, 100*md.Bound, fmtMedians(medians), 100*diff, 100*spread, 100*pooled, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("set medians differ by more than half the bound for %s", strings.Join(failures, ", "))
	}
	return nil
}

func fmtMedians(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}
