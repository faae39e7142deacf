package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchDef is the part of BENCHMARK.json the steadiness report reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// steadiness runs the workload runs times, each in a fresh process on
// its own seed (seed, seed+1, ...), and prints for every metric the
// median, quartiles, range and spread — the quartile distance as a
// share of the median — against the metric's bound. It returns the
// exit code: 0 when every run was correct and every bounded spread
// (setup_s aside, which may spread wider) is within its bound.
func steadiness(w *workload, seed uint64, seconds, trace, runs int, benchFile, bin, work string) int {
	def, err := loadBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	values := map[string][]float64{}
	code := 0
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-daemon", bin, "-work", work}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		out, perr := lastJSON(stdout)
		if err != nil || perr != nil {
			fmt.Fprintf(os.Stderr, "servebench: run %d (seed %d) failed: %v %v\n", i, s, err, perr)
			code = 1
			continue
		}
		os.Stdout.Write(stdout)
		if !out.Correct {
			code = 1
		}
		fmt.Printf("run %d seed %d: attempted %d failed %d\n", i, s, out.Attempted, out.Failed)
		for k, v := range out.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	type row struct {
		name, unit string
		bound      float64
	}
	var rows []row
	if trace == 1 {
		for _, m := range def.PerLayer {
			rows = append(rows, row{m.Name, m.Unit, math.NaN()})
		}
	} else {
		for _, m := range def.EndToEnd {
			rows = append(rows, row{m.Name, m.Unit, m.Bound})
		}
	}
	fmt.Printf("%-32s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, r := range rows {
		xs := values[r.name]
		if len(xs) == 0 {
			fmt.Printf("%-32s missing\n", r.name)
			code = 1
			continue
		}
		q1, q2, q3 := quartiles(xs)
		s := sortedCopy(xs)
		spread := (q3 - q1) / math.Abs(q2)
		verdict := ""
		if !math.IsNaN(r.bound) {
			switch {
			case spread <= r.bound/3:
				verdict = "steady"
			case spread <= r.bound:
				verdict = "within bound"
			case r.name == "setup_s":
				verdict = "wide (setup_s is judged on its median only)"
			default:
				verdict = "TOO NOISY"
				code = 1
			}
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f %6.2f %s %s\n",
			r.name, q2, q1, q3, s[0], s[len(s)-1], spread, r.bound, r.unit, verdict)
	}
	return code
}

// lastJSON parses the last non-empty line of a run's standard output.
func lastJSON(stdout []byte) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %v", err)
	}
	return &out, nil
}
