// Instrumenter demo: take a service written against the raw, uninstrumented
// containers, run the TSVD instrumenter over it (the source-level analogue
// of the paper's static binary rewriting, §4), and show the rewritten code
// plus the instrumentation-site report.
//
//	go run ./examples/instrumenter
package main

import (
	"fmt"
	"log"

	"repro/internal/instrument"
)

// sample is a miniature service using the raw containers — the "existing
// binary" the instrumenter is pointed at.
const sample = `package inventory

import "repro/internal/rawcol"

type Store struct {
	stock  *rawcol.Map[string, int]
	audits *rawcol.Array[string]
}

func NewStore() *Store {
	return &Store{
		stock:  rawcol.NewMap[string, int](),
		audits: rawcol.NewArray[string](),
	}
}

func (s *Store) Receive(sku string, n int) {
	if s.stock.Contains(sku) {
		cur, _ := s.stock.Get(sku)
		s.stock.Set(sku, cur+n)
	} else {
		s.stock.Add(sku, n)
	}
	s.audits.Append("received " + sku)
}

func (s *Store) Ship(sku string) bool {
	if !s.stock.Contains(sku) {
		return false
	}
	s.stock.Delete(sku)
	s.audits.Append("shipped " + sku)
	return true
}

func (s *Store) AuditLog() []string { return s.audits.Snapshot() }
`

func main() {
	rw := instrument.NewRewriter(instrument.DefaultDetectorExpr)
	out, sites, changed, err := rw.Rewrite("inventory.go", []byte(sample))
	if err != nil {
		log.Fatal(err)
	}
	if !changed {
		log.Fatal("instrumenter found nothing to do")
	}

	fmt.Println("=== original ===")
	fmt.Print(sample)
	fmt.Println("=== instrumented ===")
	fmt.Println(string(out))

	fmt.Printf("=== %d sites redirected through OnCall ===\n", len(sites))
	reads, writes := 0, 0
	for _, s := range sites {
		kind := "read "
		switch {
		case s.Constructor:
			kind = "ctor "
		case s.Write:
			kind = "write"
			writes++
		default:
			reads++
		}
		fmt.Printf("  line %2d  %s  %s.%s\n", s.Line, kind, s.Class, s.Method)
	}
	fmt.Printf("(%d read-API sites, %d write-API sites)\n", reads, writes)
}
