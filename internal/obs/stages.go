package obs

// The stage taxonomy: every span name and stage-histogram label the
// pipeline records comes from this list (algebra operators extend it
// with "algebra:<op>" names built by AlgebraStage). Keeping the
// vocabulary here — rather than scattered string literals — is what
// lets docs/OBSERVABILITY.md promise a stable label set.
const (
	// Service-level stages.
	StageCacheLookup  = "cache-lookup"  // compiled-spanner LRU probe
	StageCompile      = "compile"       // parse → decompose → VA → program
	StageRegistryLoad = "registry-load" // artifact decode or source fallback

	// Engine-level stages (EnumerateObserved).
	StageEval           = "eval"            // NonEmp oracle before filtering
	StageForwardSweep   = "forward-sweep"   // forward reachability over d
	StageCoReachSweep   = "co-reach-sweep"  // backward (co-reachability) sweep
	StageCandidateSweep = "candidate-sweep" // per-variable candidate spans
	StageEnumerate      = "enumerate"       // the output walk itself

	// Request-level stages.
	StageBatch  = "batch"  // whole batch extraction
	StageStream = "stream" // whole stream extraction
)

// AlgebraStage names the span/stage of one algebra operator, e.g.
// "algebra:union".
func AlgebraStage(op string) string { return "algebra:" + op }
