package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"sensoragg/internal/faults"
)

// FuzzScenario: any bytes go through the loader's steps — parseYAML,
// decodeScenario, Defaults and Validate — and come out a scenario or an
// error, never a panic. A valid scenario's fault plan reads back through
// the console's grammar (faults.ParseSpec) as the plan it prints. The
// committed scenarios seed the corpus.
func FuzzScenario(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := parseYAML(data)
		if err != nil {
			return
		}
		s, err := decodeScenario(doc)
		if err != nil {
			return
		}
		s.Defaults()
		if s.Validate() != nil {
			return
		}
		text := s.Faults.String()
		if fs, err := faults.ParseSpec(text); err != nil || fs.String() != text {
			t.Fatalf("scenario faults %q parse to %q, %v", text, fs.String(), err)
		}
	})
}
