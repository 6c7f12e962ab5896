package ir

import "testing"

// FuzzParse fuzzes the .oir parser, where untrusted inline programs
// enter owl-serve. Parse must never panic, and whatever it accepts must
// format to text that parses again and formats to the same text. Seeds
// live in testdata/fuzz/FuzzParse/ (two workload models and malformed
// inputs) and run on every `go test`; `make fuzz` mutates them.
func FuzzParse(f *testing.F) {
	f.Add("module m\nglobal @g = 1\nfunc @main() {\nentry:\n  %a = load @g\n  store %a, @g\n  ret\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse("fuzz.oir", src)
		if err != nil {
			return
		}
		text := m.Format()
		again, err := Parse("fuzz.oir", text)
		if err != nil {
			t.Fatalf("reparse of formatted module: %v\n%s", err, text)
		}
		if got := again.Format(); got != text {
			t.Fatalf("Format is not idempotent through Parse:\n%s\nvs\n%s", text, got)
		}
	})
}
