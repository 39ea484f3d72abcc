package vm

import (
	"testing"

	"orion/internal/lang"
)

// BenchmarkCompile times vm.Compile — lowering and optimize — over each
// benchmark body the census pins (resolution included, as DefineLoop
// pays it).
func BenchmarkCompile(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"mf", benchMFProg}, {"slr", benchSLRProg}, {"lda", benchLDAProg},
	} {
		prog, err := lang.ParseProgram(bc.src)
		if err != nil {
			b.Fatal(err)
		}
		env := &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: globalNames(diffGlobals(prog.Env, prog.Loop, prog.Globals))}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Compile(prog.Loop, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
