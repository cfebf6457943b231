package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	benchCommand = []string{"bash", "bench/run.sh"}
	benchPaths   = []string{"bench"}
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// catalogueJSON renders the catalogue the way BENCHMARK.json is laid out:
// one workload and one metric per line, which calibrate.sh's awk relies on.
func catalogueJSON() []byte {
	var b bytes.Buffer
	str := func(v any) string { s, _ := json.Marshal(v); return string(s) }
	fmt.Fprintf(&b, "{\n  \"command\": %s,\n  \"paths\": %s,\n  \"run_seconds\": %d,\n  \"workloads\": [\n",
		spaced(str(benchCommand)), spaced(str(benchPaths)), runSeconds)
	for i, w := range workloads {
		fmt.Fprintf(&b, "    {\"name\": %s, \"why\": %s}%s\n", str(w.name), str(w.why), comma(i, len(workloads)))
	}
	fmt.Fprintf(&b, "  ],\n  \"end_to_end\": [\n")
	for i, d := range endToEndDefs {
		fmt.Fprintf(&b, "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}%s\n",
			str(d.Name), str(d.Unit), str(d.Better), d.Bound, comma(i, len(endToEndDefs)))
	}
	fmt.Fprintf(&b, "  ],\n  \"per_layer\": [\n")
	for i, d := range perLayerDefs {
		fmt.Fprintf(&b, "    {\"name\": %s, \"unit\": %s, \"better\": %s}%s\n",
			str(d.Name), str(d.Unit), str(d.Better), comma(i, len(perLayerDefs)))
	}
	fmt.Fprintf(&b, "  ]\n}\n")
	return b.Bytes()
}

func spaced(s string) string {
	return string(bytes.ReplaceAll([]byte(s), []byte(`","`), []byte(`", "`)))
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

// TestBenchmarkJSONIsTheCatalogue holds ../BENCHMARK.json equal to the
// catalogue in code; BENCH_WRITE_JSON=1 rewrites the file from it.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	want := catalogueJSON()
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in code (BENCH_WRITE_JSON=1 go test -run BenchmarkJSON rewrites it)")
	}
	var f benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEndDefs) || !reflect.DeepEqual(f.PerLayer, perLayerDefs) {
		t.Errorf("metrics decoded from BENCHMARK.json differ from the catalogue")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%+v is outside the contract", d)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup || f.RunSeconds != runSeconds || len(f.PerLayer) != 63 {
		t.Errorf("setup_s present: %v; run_seconds %d; %d per-layer rows", hasSetup, f.RunSeconds, len(f.PerLayer))
	}
}
