package mining

import "testing"

// The application rows: each task at the scale of its brute-force test.

func BenchmarkMotif(b *testing.B) {
	data := harmonics(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Motif(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscord(b *testing.B) {
	data := harmonics(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discord(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifier: train times indexing 300 CBF series of 128 points,
// classify one Evaluate of 100 queries against them.
func BenchmarkClassifier(b *testing.B) {
	train, test := dataset(b, "CBF", 128, 300, 100)
	newTrained := func() *Classifier {
		c, err := NewClassifier(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Train(train); err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newTrained()
		}
	})
	b.Run("classify", func(b *testing.B) {
		c := newTrained()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Evaluate(test); err != nil {
				b.Fatal(err)
			}
		}
	})
}
