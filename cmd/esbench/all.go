package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint says what produced a set of numbers; two sets compare
// meaningfully only when everything but the commit agrees.
type fingerprint struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	Kernel    string `json:"kernel"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown", NProc: runtime.NumCPU(), Kernel: "unknown"}
	// Outside a git checkout (a source archive) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}

// runSet is what -out writes and -compare reads: for every workload and
// metric, one value per run (each a median over that run's reps).
type runSet struct {
	Fingerprint fingerprint                     `json:"fingerprint"`
	Seed        uint64                          `json:"seed"`
	Seconds     float64                         `json:"seconds"`
	Runs        int                             `json:"runs"`
	Units       map[string]string               `json:"units"`
	Values      map[string]map[string][]float64 `json:"values"` // workload → metric → per run
	Attempted   map[string]int                  `json:"attempted"`
	Failed      map[string]int                  `json:"failed"`
}

// runAll runs every workload, each run in a process of its own so that
// peak RSS, the memory limit and the heap a previous workload left behind
// stay per workload. Nothing runs concurrently. With trace it makes a
// second, traced run per workload.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, trace, runs int, out, outDir string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	set := runSet{Fingerprint: readFingerprint(), Seed: seed, Seconds: seconds, Runs: runs,
		Units: map[string]string{}, Values: map[string]map[string][]float64{},
		Attempted: map[string]int{}, Failed: map[string]int{}}
	fp, _ := json.Marshal(set.Fingerprint) // a struct of strings and an int
	fmt.Fprintf(stdout, "# esbench seed=%d runs=%d %s\n", seed, runs, fp)
	code := 0
	for j := 0; j < runs; j++ {
		for _, w := range workloads {
			for tr := 0; tr <= min(trace, 1); tr++ {
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+uint64(j)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(tr), "-outdir", outDir)
				var buf bytes.Buffer
				cmd.Stdout, cmd.Stderr = &buf, stderr
				runErr := cmd.Run()
				body, last := splitLastLine(buf.String())
				fmt.Fprint(stdout, body)
				var rep report
				if err := json.Unmarshal([]byte(last), &rep); err != nil {
					return 1, fmt.Errorf("workload %s: no report (%v): %v", w.name, runErr, err)
				}
				if runErr != nil || !rep.Correct {
					code = 1
				}
				set.Attempted[w.name] += rep.Attempted
				set.Failed[w.name] += rep.Failed
				if set.Values[w.name] == nil {
					set.Values[w.name] = map[string][]float64{}
				}
				for name, v := range rep.Metrics {
					set.Units[name] = v.Unit
					set.Values[w.name][name] = append(set.Values[w.name][name], v.Value)
				}
			}
		}
	}
	if out == "" {
		return code, nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return 1, err
	}
	return code, os.WriteFile(out, append(data, '\n'), 0o666)
}

// splitLastLine separates a child's table from its report line.
func splitLastLine(s string) (body, last string) {
	s = strings.TrimRight(s, "\n")
	i := strings.LastIndexByte(s, '\n')
	return s[:i+1], s[i+1:]
}
