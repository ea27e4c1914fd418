"""Natural-language outlines for code.

An outline is a short sequence of prose statements, each anchored above the
source line where a logical section starts.  This package generates outlines
with few-shot LLM prompting, parses model responses with a full
error-recovery taxonomy, keeps outlines in sync with edited code, splits
review diffs into described topics, and triages decompiled functions, all
replayable offline from recorded fixtures.
"""

__version__ = "0.1.0"

from .errors import (
    BackendError,
    BudgetExceededError,
    DanglingCommentError,
    DiffParseError,
    FinishParseError,
    InputError,
    NloError,
    PlacementError,
    ReplayMissError,
    SidecarError,
    SidecarVersionError,
    TopicParseError,
)
from .gateway import (
    CallableBackend,
    ChatPrompt,
    FixtureStore,
    GenerationRequest,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
    complete,
    request_key,
)
from .generation import (
    Constraint,
    FewShotExample,
    ParseIssue,
    ParseReport,
    PromptConfig,
    build_constraint,
    build_prompt,
    constraint_accepts,
    generate_outline,
    infill_text,
    parse_infilling,
    parse_interleaved,
)
from .maintenance import (
    EditSession,
    FinishResult,
    finish_changes,
    parse_finish_response,
    unified_diff_text,
)
from .outline import (
    Outline,
    OutlineDiff,
    OutlineStatement,
    Violation,
    diff_outlines,
    extract,
    remap_anchors,
    render_interleaved,
    render_standalone,
    validate,
)
from .sidecar import SidecarRecord, sidecar_read, sidecar_write
from .source_model import (
    C_LIKE_PROFILE,
    LanguageProfile,
    LineClass,
    PYTHON_PROFILE,
    SourceUnit,
    classify_line,
    docstring_span,
    number_lines,
)
from .triage import TriagePrediction, TriageResult, parse_triage, triage, triage_wire_text
from .vsplit import (
    ChangeList,
    FileDiff,
    Hunk,
    Topic,
    VirtualSplit,
    assemble_split,
    generate_topics,
    number_diff,
    parse_unified_diff,
    render_split_report,
    split_changelist,
    split_file,
)
