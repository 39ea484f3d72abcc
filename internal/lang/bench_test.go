package lang

import (
	"math/rand"
	"testing"

	"orion/internal/dsm"
)

const benchSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
end
`

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	loop, err := Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{Arrays: map[string][]int64{
		"ratings": {1000, 800}, "W": {32, 1000}, "H": {32, 800},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(loop, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpretIteration measures one interpreted MF SGD step —
// the per-iteration overhead the DSL execution path pays over a native
// Go kernel.
func BenchmarkInterpretIteration(b *testing.B) {
	loop, err := Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine()
	m.Arrays["ratings"] = dsm.NewSparse("ratings", 100, 100)
	w := dsm.NewDense("W", 16, 100)
	h := dsm.NewDense("H", 16, 100)
	m.Arrays["W"] = w
	m.Arrays["H"] = h
	m.Globals["step_size"] = float64(0.01)
	key := []int64{3, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunIteration(loop, key, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefetchSliceSynthesis(b *testing.B) {
	src := `
for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    g = sigmoid(w) - 1
    w_buf[idx] += 0 - g
end
`
	loop, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{
		Arrays:  map[string][]int64{"samples": {1000}, "weights": {100}},
		Buffers: map[string]string{"w_buf": "weights"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PrefetchSlice(loop, env, "weights"); err != nil {
			b.Fatal(err)
		}
	}
}

// The LDA Gibbs and SLR bodies (same sources as the shipped examples),
// benchmarked interp-vs-compiled alongside MF below.
const benchLDASrc = `
for (key, occ) in tokens
    zi = z[key[1], key[2]]
    doc_topic[zi, key[1]] -= 1
    word_topic[zi, key[2]] -= 1
    tot_buf[zi] -= 1

    p = zeros(K)
    total = 0
    for k = 1:K
        nd = max(doc_topic[k, key[1]], 0)
        nw = max(word_topic[k, key[2]], 0)
        nt = max(totals[k], 1)
        p[k] = (nd + alpha) * (nw + beta) / (nt + vbeta)
        total = total + p[k]
    end

    u = rand() * total
    chosen = 0
    acc = 0
    for k = 1:K
        acc = acc + p[k]
        if chosen == 0
            if u <= acc
                chosen = k
            end
        end
    end
    if chosen == 0
        chosen = K
    end

    doc_topic[chosen, key[1]] += 1
    word_topic[chosen, key[2]] += 1
    tot_buf[chosen] += 1
    z[key[1], key[2]] = chosen
end
`

const benchSLRSrc = `
for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`

// kernelBench describes one loop body benchmarked on both backends.
type kernelBench struct {
	name    string
	src     string
	arrays  map[string][]int64
	buffers map[string]string
	globals map[string]float64
	key     []int64
	val     float64
}

func kernelBenches() []kernelBench {
	return []kernelBench{
		{
			name: "MF", src: benchSrc,
			arrays:  map[string][]int64{"ratings": {100, 100}, "W": {16, 100}, "H": {16, 100}},
			globals: map[string]float64{"step_size": 0.01},
			key:     []int64{3, 7}, val: 1.5,
		},
		{
			name: "LDA", src: benchLDASrc,
			arrays: map[string][]int64{
				"tokens": {120, 80}, "z": {120, 80},
				"doc_topic": {6, 120}, "word_topic": {6, 80}, "totals": {6},
			},
			buffers: map[string]string{"tot_buf": "totals"},
			globals: map[string]float64{"K": 6, "alpha": 0.5, "beta": 0.1, "vbeta": 8},
			key:     []int64{3, 7}, val: 1,
		},
		{
			name: "SLR", src: benchSLRSrc,
			arrays:  map[string][]int64{"samples": {1000}, "weights": {128}},
			buffers: map[string]string{"w_buf": "weights"},
			globals: map[string]float64{"step_size": 0.05},
			key:     []int64{5}, val: 0.73,
		},
	}
}

// benchArrays builds dense arrays filled with small positive integers —
// valid 1-based topic assignments for LDA and benign values elsewhere.
func (kb kernelBench) benchArrays() map[string]*dsm.DistArray {
	rng := rand.New(rand.NewSource(17))
	out := map[string]*dsm.DistArray{}
	for name, dims := range kb.arrays {
		a := dsm.NewDense(name, dims...)
		a.Map(func(float64) float64 { return float64(1 + rng.Intn(6)) })
		out[name] = a
	}
	return out
}

func (kb kernelBench) newMachine(b testing.TB) (*Machine, *Loop) {
	loop, err := Parse(kb.src)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine()
	arrays := kb.benchArrays()
	for n, a := range arrays {
		m.Arrays[n] = a
	}
	for n, target := range kb.buffers {
		m.Buffers[n] = dsm.NewBuffer(arrays[target], nil)
	}
	for n, v := range kb.globals {
		m.Globals[n] = v
	}
	m.Rng = rand.New(rand.NewSource(99))
	return m, loop
}

func (kb kernelBench) newKernel(b testing.TB) *CompiledKernel {
	loop, err := Parse(kb.src)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, len(kb.globals))
	for n := range kb.globals {
		names = append(names, n)
	}
	cl, err := CompileLoop(loop, &CompileEnv{Arrays: kb.arrays, Buffers: kb.buffers, Globals: names})
	if err != nil {
		b.Fatalf("CompileLoop(%s): %v", kb.name, err)
	}
	k := cl.NewKernel()
	arrays := kb.benchArrays()
	for n, a := range arrays {
		if err := k.BindArray(n, a); err != nil {
			b.Fatal(err)
		}
	}
	for n, target := range kb.buffers {
		if err := k.BindBuffer(n, dsm.NewBuffer(arrays[target], nil)); err != nil {
			b.Fatal(err)
		}
	}
	for n, v := range kb.globals {
		k.SetGlobal(n, v)
	}
	k.SetRng(rand.New(rand.NewSource(99)))
	return k
}

func (kb kernelBench) benchInterp(b *testing.B) {
	m, loop := kb.newMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunIteration(loop, kb.key, kb.val); err != nil {
			b.Fatal(err)
		}
	}
}

func (kb kernelBench) benchCompiled(b *testing.B) {
	k := kb.newKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunIteration(kb.key, kb.val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelIteration: one loop-body iteration per op, each body
// on both backends.
func BenchmarkKernelIteration(b *testing.B) {
	for _, kb := range kernelBenches() {
		b.Run(kb.name+"/interp", kb.benchInterp)
		b.Run(kb.name+"/compiled", kb.benchCompiled)
	}
}
