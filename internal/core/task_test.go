package core

import (
	"strings"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
)

// TestTaskAnnotateErrorsSurface: when the expert pool cannot label the
// held-out set, or the crowd pool cannot label the agreement sample, the
// task run gets an error. It does not go on with an empty Table 3 or a
// kappa of 0. A pool of two annotators is below the protocol's
// three-annotator minimum, so its Annotate fails.
func TestTaskAnnotateErrorsSurface(t *testing.T) {
	p := sharedPipeline(t)
	for _, task := range []annotate.Task{annotate.TaskCTH, annotate.TaskDox} {
		platDocs := map[corpus.Platform][]*corpus.Document{}
		for _, plat := range taskPlatforms(task) {
			platDocs[plat] = p.docsFor(plat)
		}
		short := annotate.NewPool(annotate.PoolConfig{Size: 2, TPR: 1, TNR: 1}, randx.New(1))
		if items, err := p.buildEvalSet(task, platDocs, short, randx.New(1)); err == nil || items != nil {
			t.Errorf("%s buildEvalSet: %d items, err %v; want the Annotate error", task, len(items), err)
		} else if !strings.Contains(err.Error(), "need at least 3") {
			t.Errorf("%s buildEvalSet: err %v, want the pool-size error", task, err)
		}
		if _, err := p.measureCrowdStats(task, platDocs, short, randx.New(1)); err == nil {
			t.Errorf("%s measureCrowdStats: no error, want the Annotate error", task)
		} else if !strings.Contains(err.Error(), "need at least 3") {
			t.Errorf("%s measureCrowdStats: err %v, want the pool-size error", task, err)
		}
	}
}
