"""Multilingual news location detection.

The pipeline recognizes entities in a news article, infers candidate
locations from article categories and from the knowledge-base pages of
non-location entities, ranks the candidates against the document with cosine
similarity over shared embeddings, and evaluates predictions with macro
Precision@Top-1 at city and country level.

The package exports nothing itself: import each name from its module, such as
``newsgeo.evaluation.Pipeline`` or ``newsgeo.kb.KbCache``.
"""

__version__ = "0.1.0"
