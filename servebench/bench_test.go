package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"neisky/internal/core"
	"neisky/internal/graph"
)

// small returns a copy of the named workload on a 2k-vertex rung.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.n = 2000
	return &c
}

func TestScriptsAreAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.name)
		g1, g2 := genGraph(w.n, 7), genGraph(w.n, 8)
		a := scriptBytes(&script{w: w, seed: 7, n: w.n}, g1, 200)
		b := scriptBytes(&script{w: w, seed: 7, n: w.n}, genGraph(w.n, 7), 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different scripts", w.name)
		}
		if c := scriptBytes(&script{w: w, seed: 8, n: w.n}, g2, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
	}
}

func TestClientsRunEveryClassEqually(t *testing.T) {
	for _, w := range workloads {
		sc := &script{w: w, seed: 1, n: w.n}
		counts := map[int]int{}
		for i := 0; i < w.clients; i++ {
			for k := 0; k < 3*len(w.cycle); k++ {
				counts[sc.at(i, k).class]++
			}
		}
		for _, c := range w.slots {
			if counts[c] == 0 {
				t.Errorf("%s: slot class %s never requested", w.name, classNames[c])
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (10 samples beyond)", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples was not refused")
	}
	if v, err := percentile(xs[:3], 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) = [0.5, 2.0, 3.5]: Python
	// extrapolates past the ends of small samples.
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func skylineBody(t *testing.T, st state, size int, prefix []int32) []byte {
	return mustJSON(t, map[string]any{"epoch": st.epoch, "n": st.n, "m": st.m,
		"skyline_size": size, "skyline": prefix})
}

func TestChecksRejectCorruptAnswers(t *testing.T) {
	w := small(t, "durable-swaps")
	g := genGraph(w.n, 3)
	sc := &script{w: w, seed: 3, n: g.N()}
	ref, err := buildReference(w, sc, g, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Skyline: size and prefix.
	base := ref.base
	if err := checkSkyline(skylineBody(t, base, base.skySize, base.skyPrefix), base); err != nil {
		t.Fatalf("correct skyline rejected: %v", err)
	}
	bad := append([]int32{}, base.skyPrefix...)
	bad[1]++
	for name, body := range map[string][]byte{
		"size":      skylineBody(t, base, base.skySize-1, base.skyPrefix),
		"prefix":    skylineBody(t, base, base.skySize, bad),
		"truncated": mustJSON(t, map[string]any{"epoch": 1, "n": base.n, "m": base.m, "truncated": true, "skyline_size": base.skySize, "skyline": base.skyPrefix}),
	} {
		if checkSkyline(body, base) == nil {
			t.Errorf("corrupt skyline (%s) accepted", name)
		}
	}

	// Dominators: one skyline vertex, one dominated vertex.
	res := core.FilterRefineSky(g, core.Options{})
	var in, out int32 = -1, -1
	for v := int32(0); v < int32(g.N()); v++ {
		if res.Dominator[v] == v && in < 0 {
			in = v
		}
		if res.Dominator[v] != v && out < 0 {
			out = v
		}
	}
	domBody := func(dIn, dOut int32) []byte {
		return mustJSON(t, map[string]any{"epoch": 1, "n": base.n, "m": base.m, "skyline_size": base.skySize,
			"dominators": []map[string]any{
				{"v": in, "dominator": dIn, "in_skyline": dIn == in},
				{"v": out, "dominator": dOut, "in_skyline": dOut == out},
			}})
	}
	verts := []int32{in, out}
	if err := checkDominators(domBody(in, res.Dominator[out]), ref, verts); err != nil {
		t.Fatalf("correct dominators rejected: %v", err)
	}
	nonDom := int32(-1)
	for d := int32(0); d < int32(g.N()); d++ {
		if d != out && !core.Dominates(g, d, out) {
			nonDom = d
			break
		}
	}
	if checkDominators(domBody(in, out), ref, verts) == nil {
		t.Error("dominated vertex reported as its own dominator accepted")
	}
	if checkDominators(domBody(in, nonDom), ref, verts) == nil {
		t.Error("non-dominating dominator accepted")
	}
	if checkDominators(domBody(out, res.Dominator[out]), ref, verts) == nil {
		t.Error("skyline vertex with a foreign dominator accepted")
	}

	// Swap: m, applied, epoch.
	st := ref.swaps[0]
	swap := func(epoch uint64, m, applied int) []byte {
		return mustJSON(t, map[string]any{"epoch": epoch, "n": st.n, "m": m, "applied": applied, "skyline_size": st.skySize})
	}
	if err := checkSwap(swap(st.epoch, st.m, st.applied), st); err != nil {
		t.Fatalf("correct swap rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"m":       swap(st.epoch, st.m+1, st.applied),
		"applied": swap(st.epoch, st.m, st.applied+1),
		"epoch":   swap(st.epoch+1, st.m, st.applied),
	} {
		if checkSwap(body, st) == nil {
			t.Errorf("corrupt swap (%s) accepted", name)
		}
	}

	// Recovered state: the restarted daemon serves the last swap's state
	// as epoch 1.
	last := ref.swaps[len(ref.swaps)-1]
	last.epoch = 1
	if err := checkSkyline(skylineBody(t, last, last.skySize, last.skyPrefix), last); err != nil {
		t.Fatalf("correct recovered state rejected: %v", err)
	}
	prev := ref.swaps[len(ref.swaps)-2]
	prev.epoch = 1
	if prev.m != last.m && checkSkyline(skylineBody(t, prev, prev.skySize, prev.skyPrefix), last) == nil {
		t.Error("recovered state missing the last swap accepted")
	}
	if checkSkyline(skylineBody(t, last, last.skySize+1, last.skyPrefix), last) == nil {
		t.Error("recovered state with a wrong skyline size accepted")
	}
}

func TestEdgeModelMatchesRebuild(t *testing.T) {
	g := genGraph(2000, 5)
	em := newEdgeModel(g)
	want := map[[2]int32]bool{}
	g.Edges(func(u, v int32) { want[key(u, v)] = true })
	for s := 0; s < 20; s++ {
		ops := swapOps(5, g, s)
		applied := 0
		for _, op := range ops {
			k := key(op.U, op.V)
			if want[k] != op.Add {
				applied++
				want[k] = op.Add
			}
		}
		if got := em.apply(ops); got != applied {
			t.Fatalf("swap %d: applied %d, want %d", s, got, applied)
		}
	}
	b := graph.NewBuilder(g.N())
	for e, ok := range want {
		if ok {
			b.AddEdge(e[0], e[1])
		}
	}
	if got, wantM := em.graph().M(), b.Build().M(); got != wantM {
		t.Errorf("model m = %d, want %d", got, wantM)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	def, err := loadBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ name, unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	var e2e, layer []string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range def.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	if got := names(endToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics printed %v, BENCHMARK.json has %v", got, e2e)
	}
	if got := names(perLayer); !slices.Equal(got, layer) {
		t.Errorf("per-layer metrics printed %v, BENCHMARK.json has %v", got, layer)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range raw.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", got, want)
	}
}
