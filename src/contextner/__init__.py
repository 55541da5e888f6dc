"""Context-weighted named entity recognition from seed examples.

Feed the pipeline a handful of example entity surfaces ("Paris",
"London", ...): it gathers documents mentioning them, scores the word
sequences that precede (or follow) the examples, and then recognizes new
entities wherever those high-scoring contexts reappear, by accumulating
per-class weight votes.

Each public name lives in the module that defines it, for example
`contextner.weighting.build_weight_table` or `contextner.seeds.UNKNOWN`;
import it from there. `import contextner` loads no submodule, so a
program pays only for the modules it imports.
"""

__version__ = "0.1.0"
