// Package examples embeds the committed programs cmd/orion-run runs, so
// each has one copy: editing a .orion file changes every front door. It
// also builds each application's arrays and metrics once (fixtures.go)
// for orion-run, the quickstart and the tests.
package examples

import _ "embed"

// MF, LDA and SLR are quickstart/mf.orion, lda_dsl/lda.orion and
// slr_prefetch/slr.orion.
var (
	//go:embed quickstart/mf.orion
	MF string
	//go:embed lda_dsl/lda.orion
	LDA string
	//go:embed slr_prefetch/slr.orion
	SLR string
)
