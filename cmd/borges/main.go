// Command borges runs the full AS-to-Organization mapping pipeline and
// emits the resulting mapping.
//
// By default it generates the calibrated synthetic corpus and runs
// against the simulated web and simulated LLM:
//
//	borges -seed 1 -scale 0.1 -o mapping.csv
//	borges -format jsonl -o mapping.jsonl
//	borges -format binary -o snapshot.bin   # borgesd -snapshot-in loads it instantly
//
// With -as2org/-peeringdb it consumes on-disk snapshots (CAIDA AS2Org
// JSON-lines and a PeeringDB API dump); those runs need -live to crawl
// the real web through http.DefaultTransport, and -openai-base /
// -openai-key (or OPENAI_API_KEY) select a real model — together they
// reproduce the paper's original configuration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	borges "github.com/nu-aqualab/borges"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borges: ")

	seed := flag.Int64("seed", 1, "synthetic corpus seed")
	scale := flag.Float64("scale", 0.1, "synthetic corpus scale (1.0 = paper scale)")
	as2orgPath := flag.String("as2org", "", "CAIDA AS2Org JSON-lines snapshot (disables -synth)")
	pdbPath := flag.String("peeringdb", "", "PeeringDB API dump (required with -as2org)")
	webPath := flag.String("web", "", "simulated-web manifest (web.jsonl from borges-gen) for on-disk corpora")
	live := flag.Bool("live", false, "crawl the real web instead of the simulated universe")
	openaiBase := flag.String("openai-base", "", "OpenAI-compatible endpoint (default: simulated LLM)")
	openaiKey := flag.String("openai-key", os.Getenv("OPENAI_API_KEY"), "API key for -openai-base")
	features := flag.String("features", "all", "comma-separated features: oidp,na,rr,f (or 'all')")
	out := flag.String("o", "-", "output file for the mapping ('-' = stdout)")
	format := flag.String("format", "csv", "mapping output format: csv, jsonl, or binary (a serving snapshot artifact for borgesd -snapshot-in)")
	cacheDir := flag.String("cache-dir", "", "persist the LLM/crawl cache in this directory (reused across runs)")
	noCache := flag.Bool("no-cache", false, "disable the in-process LLM/crawl cache")
	verbose := flag.Bool("v", false, "log pipeline stage progress to stderr")
	maxRetries := flag.Int("max-retries", 2, "retries per transient fault before quarantining the item (0 = no retries)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures before a host/model circuit opens (0 = no breakers)")
	reportPath := flag.String("report", "", "write the run's fault report (JSON) to this file ('-' = stderr)")
	flag.Parse()

	// Bound -scale up front with a readable message: the generator
	// rejects out-of-range scales too, but only after flag typos have
	// already cost a process start, and the bound here names the flag.
	if *as2orgPath == "" && (*scale < borges.MinDatasetScale || *scale > borges.MaxDatasetScale) {
		log.Fatalf("-scale %g out of range [%g, %g] (the ceiling targets ~120M synthetic ASNs, safely below the 32-bit ASN space)",
			*scale, borges.MinDatasetScale, borges.MaxDatasetScale)
	}

	if *noCache && *cacheDir != "" {
		log.Fatal("-no-cache and -cache-dir are mutually exclusive")
	}

	// Reject a bad -format before the pipeline runs: a multi-minute
	// crawl+extract batch must not complete only to fail at write time.
	switch *format {
	case "csv", "jsonl", "binary":
	default:
		log.Fatalf("unknown format %q (valid: csv, jsonl, binary)", *format)
	}

	in := borges.Inputs{}
	if *as2orgPath != "" {
		w, err := parseFile(*as2orgPath, func(r io.Reader) (*borges.WHOISSnapshot, error) {
			return borges.ParseWHOIS(r, "snapshot")
		})
		if err != nil {
			log.Fatal(err)
		}
		in.WHOIS = w
		if *pdbPath != "" {
			p, err := parseFile(*pdbPath, func(r io.Reader) (*borges.PDBSnapshot, error) {
				return borges.ParsePeeringDB(r, "snapshot")
			})
			if err != nil {
				log.Fatal(err)
			}
			in.PDB = p
		}
		switch {
		case *webPath != "":
			u, err := parseFile(*webPath, borges.ReadWebUniverse)
			if err != nil {
				log.Fatal(err)
			}
			in.Transport = u
		case !*live:
			log.Fatal("on-disk snapshots need -web <manifest> or -live")
		}
	} else {
		ds, err := borges.GenerateDataset(borges.DatasetConfig{Seed: *seed, Scale: *scale})
		if err != nil {
			log.Fatal(err)
		}
		in.WHOIS = ds.WHOIS
		in.PDB = ds.PDB
		in.Transport = ds.Web
	}
	if *live {
		in.Transport = http.DefaultTransport
	}
	if *openaiBase != "" {
		in.Provider = borges.NewOpenAIProvider(*openaiBase, *openaiKey, nil)
	} else {
		in.Provider = borges.NewSimulatedLLM()
	}

	feats, err := parseFeatures(*features)
	if err != nil {
		log.Fatal(err)
	}
	opts := borges.Options{
		Features:         &feats,
		MaxRetries:       *maxRetries,
		BreakerThreshold: *breakerThreshold,
	}
	if !*noCache {
		store, err := borges.NewCache(borges.CacheOptions{Dir: *cacheDir})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		opts.Cache = store
	}
	if *verbose {
		opts.Progress = func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, "borges: "+f+"\n", args...)
		}
	}
	res, err := borges.Run(context.Background(), in, opts)
	if err != nil {
		log.Fatal(err)
	}

	if *format == "binary" {
		// The binary artifact is a fully-indexed serving snapshot, so
		// the indexing cost is paid once here and never again at any
		// borgesd cold start.
		snap, err := borges.NewSnapshot(res.Mapping, "pipeline")
		if err != nil {
			log.Fatal(err)
		}
		var hash string
		if *out == "-" {
			hash, err = borges.WriteSnapshot(os.Stdout, snap)
		} else {
			hash, err = borges.WriteSnapshotFile(*out, snap)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot content hash %s\n", hash)
	} else {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if *format == "jsonl" {
			if err := borges.WriteMapping(w, res.Mapping); err != nil {
				log.Fatal(err)
			}
		} else {
			fmt.Fprintln(w, "org_id,org_name,asns")
			for _, c := range res.Mapping.Clusters {
				asns := make([]string, len(c.ASNs))
				for i, a := range c.ASNs {
					asns[i] = a.String()
				}
				fmt.Fprintf(w, "%d,%s,%s\n", c.ID, csvEscape(c.Name), strings.Join(asns, " "))
			}
		}
	}

	if *reportPath != "" {
		if err := writeReport(*reportPath, res.Report); err != nil {
			log.Fatal(err)
		}
	}
	if res.Report.Degraded() {
		fmt.Fprintf(os.Stderr, "run degraded: %d items quarantined (rerun with a warm cache to heal)\n",
			len(res.Report.Quarantined))
	}

	theta, err := borges.Theta(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapped %d networks into %d organizations (θ = %.4f)\n",
		res.Mapping.NumASNs(), res.Mapping.NumOrgs(), theta)
}

// writeReport emits the machine-readable RunReport so operators can
// diff degraded runs or alert on quarantine counts without scraping
// logs.
func writeReport(path string, rep *borges.RunReport) error {
	w := os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

func parseFeatures(s string) (borges.Features, error) {
	if s == "all" || s == "" {
		return borges.AllFeatures(), nil
	}
	var f borges.Features
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "oidp", "oid_p":
			f.OIDP = true
		case "na", "n&a", "notes", "notesaka":
			f.NotesAka = true
		case "rr", "r&r":
			f.RR = true
		case "f", "favicons", "favicon":
			f.Favicons = true
		case "":
		default:
			return f, fmt.Errorf("unknown feature %q (valid: oidp, na, rr, f, all)", part)
		}
	}
	return f, nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
