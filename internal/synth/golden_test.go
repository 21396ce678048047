package synth

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenCorpus pins the SHA-256 of every file `borges-gen -seed 1
// -scale 0.1` writes: buffered (Generate through the canonical
// writers) and with -stream (WriteCorpusStream at borges-gen's default
// 2,048-unit chunks). The streamed files hold the same records as the
// buffered ones, appended in chunk order, so their bytes differ.
var goldenCorpus = []struct {
	file, key          string // corpus file, serializeDataset key
	buffered, streamed string
}{
	{"apnic.csv", "apnic",
		"768ef02d653d91daed5eab68be3da74b296117bdfa8ac9e4fea042a12f4cd1ab",
		"38122494e65cefb4d2dce1b44a97af5cd16cbdcd28e82559792ef9eecb5c9295"},
	{"as2org.jsonl", "whois",
		"e64ad01f649fd7e03bd74de5981e98c9121e8875f0633679aba3ca008b6904ef",
		"f2e7730e211cf89a0cf02b13c2acb7917562aa9c67e18459b0b84a202ffb5e6e"},
	{"asrank.csv", "asrank",
		"f8af56171a883f9ee00556657709514fef974ab24b9ea24429e23b8f573eca7e",
		"a28c01e87acec28edd195a5982518094202e70fc637d9048a0dfc1342eeb0914"},
	{"peeringdb.json", "peeringdb",
		"e638343083eb896f42d113bfa7c1a29514f23ab97ab0b826c884b25a5270494e",
		"ffb7edfb7b07410503a3522f1972f3dfab2176ca175ecddf9658c73809b8c2f3"},
	{"web.jsonl", "web",
		"e36739828274d6ce9c4a65372fce1a7440f40b7e8463e18bdb52c162979ced25",
		"3865f7577c64cbbbbf2dbc9ced13096060f80a78929e4732287b4b97d78314ce"},
}

// TestGoldenCorpus fails by file name when a generator change moves
// any byte of the corpus. The equivalence tests only prove that the
// buffered and streamed paths agree with each other.
func TestGoldenCorpus(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := serializeDataset(t, ds)
	dir := t.TempDir()
	if _, err := WriteCorpusStream(dir, cfg, 2048); err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenCorpus {
		if got := fmt.Sprintf("%x", sha256.Sum256(blobs[g.key])); got != g.buffered {
			t.Errorf("buffered %s: sha256 %s, want %s", g.file, got, g.buffered)
		}
		blob, err := os.ReadFile(filepath.Join(dir, g.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != g.streamed {
			t.Errorf("streamed %s: sha256 %s, want %s", g.file, got, g.streamed)
		}
	}
}
