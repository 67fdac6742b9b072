// Package e2e holds the end-to-end gates of the repository as ordinary
// `go test` cases, so tier-1 (`go build ./... && go test ./...`) runs every
// assertion `make check` does. The tests drive the system the way an
// operator would — the real tsvd-run, tsvd-trapd and tsvd-triage binaries,
// built once by TestMain, against real TCP ports and temp directories — and
// lint the operator docs against the source. docs/TESTING.md maps each test
// to the contract it gates.
//
// Tests that spawn processes skip under `go test -short`.
package e2e
