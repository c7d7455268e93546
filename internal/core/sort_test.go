package core

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// sortCases are the shapes Sort must get right on both sides of radixMin:
// bounded domains (the engine's populations), full 64-bit words (every
// digit varies, the top one included), heavy duplicates, constants, and
// presorted or reversed input.
func sortCases() map[string][]uint64 {
	rng := rand.New(rand.NewPCG(1, 2))
	gen := func(n int, f func(i int) uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	cases := map[string][]uint64{"empty": nil, "one": {7}}
	for _, n := range []int{radixMin - 1, radixMin, 1000, 5000} {
		cases[fmt.Sprintf("bounded/%d", n)] = gen(n, func(int) uint64 { return rng.Uint64N(uint64(4 * n)) })
		cases[fmt.Sprintf("full/%d", n)] = gen(n, func(int) uint64 { return rng.Uint64() })
		cases[fmt.Sprintf("topdigit/%d", n)] = gen(n, func(int) uint64 { return rng.Uint64N(4) << 62 })
		cases[fmt.Sprintf("dups/%d", n)] = gen(n, func(int) uint64 { return 1000 + rng.Uint64N(3) })
		cases[fmt.Sprintf("constant/%d", n)] = gen(n, func(int) uint64 { return 42 })
		cases[fmt.Sprintf("ascending/%d", n)] = gen(n, func(i int) uint64 { return uint64(i) << 20 })
		cases[fmt.Sprintf("descending/%d", n)] = gen(n, func(i int) uint64 { return uint64(n-i) * 257 })
	}
	return cases
}

func TestSortMatchesSlicesSort(t *testing.T) {
	for name, in := range sortCases() {
		got, want := slices.Clone(in), slices.Clone(in)
		Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Sort disagrees with slices.Sort", name)
		}
		if sc := SortedCopy(in); !slices.Equal(sc, want) {
			t.Errorf("%s: SortedCopy disagrees with slices.Sort", name)
		}
	}
}

// TestSortedCopyLeavesInputAlone: SortedCopy sorts a copy, never its argument.
func TestSortedCopyLeavesInputAlone(t *testing.T) {
	in := sortCases()["full/1000"]
	orig := slices.Clone(in)
	SortedCopy(in)
	if !slices.Equal(in, orig) {
		t.Fatal("SortedCopy modified its input")
	}
}

// FuzzSort holds Sort to slices.Sort on arbitrary words; the seed corpus
// straddles radixMin so both the radix and the fallback path are fuzzed.
func FuzzSort(f *testing.F) {
	for _, n := range []int{0, 3, radixMin - 1, radixMin, 600} {
		buf := make([]byte, 8*n)
		for i := range buf {
			buf[i] = byte(i * 131)
		}
		f.Add(buf, uint8(0))
		f.Add(buf, uint8(56))
	}
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		// shift narrows the words to a bounded domain, like the engine's
		// populations, so constant high digits are fuzzed too.
		s := make([]uint64, len(data)/8)
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(data[8*i:]) >> (shift % 64)
		}
		want := slices.Clone(s)
		slices.Sort(want)
		Sort(s)
		if !slices.Equal(s, want) {
			t.Fatalf("Sort of %d words (shift %d) disagrees with slices.Sort", len(s), shift%64)
		}
	})
}

// BenchmarkSort is the ground-truth sort against slices.Sort on the
// engine's shape — values below 4N — at the fleet- and bignet-sized
// populations, in ns per element.
func BenchmarkSort(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64N(uint64(4 * n))
		}
		buf := make([]uint64, n)
		for _, impl := range []struct {
			name string
			sort func([]uint64)
		}{{"radix", Sort}, {"slices", slices.Sort[[]uint64]}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					impl.sort(buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
