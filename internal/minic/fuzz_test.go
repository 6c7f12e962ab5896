package minic

import (
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

// FuzzCompile: Compile never panics, and whatever it accepts prints as
// IR that ir.Parse reads back to the same text. Compiled modules reach
// the rest of the pipeline only as IR, so a module that does not
// reparse could not be stored, shipped to a peer, or replayed. Seeds
// live in testdata/fuzz/FuzzCompile.
func FuzzCompile(f *testing.F) {
	f.Add("int g = 0;\nvoid main() {\n    g = g + 1;\n    print(g);\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Compile("fuzz.mc", src)
		if err != nil {
			return
		}
		text := m.Format()
		again, err := ir.Parse("fuzz.mc", text)
		if err != nil {
			t.Fatalf("formatted module does not parse: %v\n%s", err, text)
		}
		if got := again.Format(); got != text {
			t.Fatalf("formatted module reparses to different text:\n%s\nvs\n%s", text, got)
		}
	})
}
