// Package instrument is the TSVD instrumenter (§4): it rewrites Go source
// that uses the raw, uninstrumented containers (repro/internal/rawcol) into
// source using the instrumented collections, redirecting every
// thread-unsafe API call through the detector's OnCall proxy.
//
// The paper's instrumenter performs this interposition by static binary
// rewriting of .NET CIL; Go has no equivalent stable binary layer, so this
// package performs the same local transformation at the source level
// (DESIGN.md, "Substitutions"): type names, constructor calls and method
// names are rewritten according to an API mapping table, and a detector
// argument is threaded into constructors. Like the original, instrumentation
// is local — only call sites of listed thread-unsafe classes change; locks,
// channels, forks and joins are untouched.
package instrument

import "repro/internal/collections"

// ClassMapping describes how one raw container class is rewritten.
type ClassMapping struct {
	// RawType and RawConstructor name the uninstrumented identifiers
	// (e.g. "Map", "NewMap").
	RawType        string
	RawConstructor string
	// InstType and InstConstructor name the instrumented replacements
	// (e.g. "Dictionary", "NewDictionary").
	InstType        string
	InstConstructor string
	// Methods maps raw method names to instrumented ones. Methods not
	// listed are assumed to keep their name.
	Methods map[string]string
	// Writes lists the instrumented method names that are write-APIs
	// (for the instrumentation report). DefaultMappings fills it from
	// collections.Registry, the API list the proxies themselves follow.
	Writes map[string]bool
}

// DefaultMappings is the built-in API list shipping with the instrumenter,
// covering every rawcol container class.
func DefaultMappings() []ClassMapping {
	mappings := []ClassMapping{
		{
			RawType: "Map", RawConstructor: "NewMap",
			InstType: "Dictionary", InstConstructor: "NewDictionary",
			Methods: map[string]string{
				"Get": "TryGetValue", "MustGet": "Get", "Contains": "ContainsKey",
				"Delete": "Remove", "Len": "Count", "Range": "ForEach",
			},
		},
		{
			RawType: "Array", RawConstructor: "NewArray",
			InstType: "List", InstConstructor: "NewList",
			Methods: map[string]string{
				"Append": "Add", "Len": "Count", "Snapshot": "ToSlice",
				"Range": "ForEach",
			},
		},
		{
			RawType: "Chain", RawConstructor: "NewChain",
			InstType: "LinkedList", InstConstructor: "NewLinkedList",
			Methods: map[string]string{
				"PushBack": "AddLast", "PushFront": "AddFirst",
				"PopFront": "RemoveFirst", "PopBack": "RemoveLast",
				"PeekFront": "First", "PeekBack": "Last",
				"Len": "Count", "Snapshot": "ToSlice",
			},
		},
		{
			RawType: "SortedMap", RawConstructor: "NewSortedMap",
			InstType: "SortedDictionary", InstConstructor: "NewSortedDictionary",
			Methods: map[string]string{
				"Get": "TryGetValue", "Contains": "ContainsKey",
				"Delete": "Remove", "Len": "Count",
			},
		},
		{
			RawType: "Heap", RawConstructor: "NewHeap",
			InstType: "PriorityQueue", InstConstructor: "NewPriorityQueue",
			Methods: map[string]string{
				"Push": "Enqueue", "Pop": "Dequeue", "Len": "Count",
				"Snapshot": "ToSlice",
			},
		},
		{
			RawType: "Bits", RawConstructor: "NewBits",
			InstType: "BitArray", InstConstructor: "NewBitArray",
			Methods: map[string]string{},
		},
	}
	apis := collections.Registry()
	for i := range mappings {
		m := &mappings[i]
		m.Writes = map[string]bool{}
		for method, kind := range apis[m.InstType] {
			if kind == collections.Write {
				m.Writes[method] = true
			}
		}
	}
	return mappings
}

// Options configures a rewrite.
type Options struct {
	// RawImport is the import path of the uninstrumented containers.
	RawImport string
	// InstImport is the import path of the instrumented collections.
	InstImport string
	// InstPkgName is the local package name for InstImport.
	InstPkgName string
	// DetectorImport provides the detector expression's package; empty
	// disables the extra import (DetectorExpr must then be resolvable).
	DetectorImport string
	// DetectorPkgName is the local package name for DetectorImport.
	DetectorPkgName string
	// DetectorExpr is the expression inserted as the constructor's
	// detector argument, e.g. "tsvd.Default()".
	DetectorExpr string
	// Mappings is the API list; nil uses DefaultMappings.
	Mappings []ClassMapping
}

// DefaultOptions rewrites rawcol usage into the public tsvd collections.
func DefaultOptions() Options {
	return Options{
		RawImport:       "repro/internal/rawcol",
		InstImport:      "repro/internal/collections",
		InstPkgName:     "collections",
		DetectorImport:  "repro",
		DetectorPkgName: "tsvd",
		DetectorExpr:    "tsvd.Default()",
		Mappings:        DefaultMappings(),
	}
}

// Site records one rewritten call site for the instrumentation report.
type Site struct {
	File   string
	Line   int
	Class  string
	Method string
	Write  bool
	// Constructor marks constructor rewrites (not OnCall sites, but the
	// places where the detector argument was injected).
	Constructor bool
}
