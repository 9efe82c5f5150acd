package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// BenchFile is one committed BENCH_*.json file and the bench whose
// rows it holds. Every row is virtual — bytes, frames, events and
// virtual-clock time — so a run at QuickScale, the scale the files are
// written at, reproduces the file byte for byte on any machine.
type BenchFile struct {
	// Key is the bench's here-bench -only key.
	Key string
	// Name is the file's name at the repository root.
	Name string
	// Run runs the bench at scale and returns its rows and their
	// rendered table.
	Run func(Scale) (rows any, table string, err error)
}

// BenchFiles lists the committed bench files.
func BenchFiles() []BenchFile {
	return []BenchFile{
		{"wire", "BENCH_wire.json", func(s Scale) (any, string, error) {
			rows, err := WireBench(s)
			if err != nil {
				return nil, "", err
			}
			return rows, RenderWireBench(rows).String(), nil
		}},
		{"trace", "BENCH_trace.json", func(s Scale) (any, string, error) {
			res, err := TraceBench(s)
			if err != nil {
				return nil, "", err
			}
			return res, RenderTraceBench(res), nil
		}},
		{"recovery", "BENCH_recovery.json", func(s Scale) (any, string, error) {
			rows, err := RecoveryBench(s)
			if err != nil {
				return nil, "", err
			}
			return rows, RenderRecoveryBench(rows).String(), nil
		}},
	}
}

// BenchJSON is the one encoding of a BENCH_*.json file: the rows as
// two-space-indented JSON and a trailing newline.
func BenchJSON(rows any) ([]byte, error) {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// GateDiff is the bench gate's one rule: a fresh run's bytes must
// equal the committed file's. On a mismatch it names the file and the
// first line that differs, which carries the moved field; a row on
// one side only differs at the first line past the shorter side.
func GateDiff(name string, committed, fresh []byte) error {
	if bytes.Equal(committed, fresh) {
		return nil
	}
	c, f := bytes.Split(committed, []byte("\n")), bytes.Split(fresh, []byte("\n"))
	line := func(lines [][]byte, i int) string {
		if i >= len(lines) {
			return "(end of file)"
		}
		return string(bytes.TrimSpace(lines[i]))
	}
	i := 0
	for i < len(c) && i < len(f) && bytes.Equal(c[i], f[i]) {
		i++
	}
	return fmt.Errorf("%s differs from a fresh run at line %d (`make bench` rewrites it if the change is intended)\n  committed: %s\n  fresh:     %s",
		name, i+1, line(c, i), line(f, i))
}
