// The benchmark is a module of its own so that it builds from its own build
// file and the root module's `go build ./...` never sees it. Its path keeps
// the tpccmodel/ prefix, which is what lets it import the engine's internal
// packages through the replace below.
module tpccmodel/internal/bench

go 1.22

require tpccmodel v0.0.0

replace tpccmodel => ../..
