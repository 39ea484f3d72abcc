package dsm

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// LineParser converts one text line to an (index, value) record, the
// user-defined parser of Orion.text_file. Returning ok=false skips the
// line.
type LineParser func(line string) (idx []int64, v float64, ok bool)

// Builder records a lazy DistArray construction pipeline: a source
// (text file or existing array) followed by map transformations. Like
// the paper's deferred evaluation, nothing runs until Materialize; the
// user-defined functions are fused into a single pass with no
// intermediate arrays (Section 3.1).
type Builder struct {
	name    string
	dims    []int64
	dense   bool
	source  func(emit func(idx []int64, v float64)) error
	valMaps []func(v float64) float64
	idxMaps []func(idx []int64, v float64) ([]int64, float64, bool)
}

// FromTextFile starts a pipeline reading records from a text file.
func FromTextFile(name, path string, parser LineParser, dims ...int64) *Builder {
	return &Builder{
		name: name,
		dims: dims,
		source: func(emit func(idx []int64, v float64)) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return scanLines(f, parser, emit)
		},
	}
}

// FromReader starts a pipeline reading records from an io.Reader.
func FromReader(name string, r io.Reader, parser LineParser, dims ...int64) *Builder {
	return &Builder{
		name: name,
		dims: dims,
		source: func(emit func(idx []int64, v float64)) error {
			return scanLines(r, parser, emit)
		},
	}
}

func scanLines(r io.Reader, parser LineParser, emit func(idx []int64, v float64)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx, v, ok := parser(line)
		if !ok {
			continue
		}
		emit(idx, v)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dsm: reading line %d: %w", lineNo, err)
	}
	return nil
}

// Map appends a value transformation (Orion.map with map_values=true).
// Lazy: fused at Materialize.
func (b *Builder) Map(f func(v float64) float64) *Builder {
	b.valMaps = append(b.valMaps, f)
	b.idxMaps = append(b.idxMaps, nil)
	return b
}

// MapIndex appends a record transformation that can rewrite the index,
// change the value, or drop the record.
func (b *Builder) MapIndex(f func(idx []int64, v float64) ([]int64, float64, bool)) *Builder {
	b.valMaps = append(b.valMaps, nil)
	b.idxMaps = append(b.idxMaps, f)
	return b
}

// Dense requests dense materialization.
func (b *Builder) Dense() *Builder {
	b.dense = true
	return b
}

// Materialize executes the fused pipeline and produces the DistArray.
func (b *Builder) Materialize() (*DistArray, error) {
	if len(b.dims) == 0 {
		return nil, fmt.Errorf("dsm: materializing %q without extents", b.name)
	}
	var out *DistArray
	if b.dense {
		out = NewDense(b.name, b.dims...)
	} else {
		out = NewSparse(b.name, b.dims...)
	}
	err := b.source(func(idx []int64, v float64) {
		keep := true
		for i := range b.valMaps {
			if b.valMaps[i] != nil {
				v = b.valMaps[i](v)
				continue
			}
			idx, v, keep = b.idxMaps[i](idx, v)
			if !keep {
				return
			}
		}
		out.SetAt(v, idx...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
