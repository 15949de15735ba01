"""Bundled example games: a two-agent deployment evaluation.

An AI agent A reports its capability to a human overseer H, who then decides
whether to deploy it.  Two rival models of this interaction differ in what H
observes: in the honesty evaluation H sees both the true capability and the
report, in the capability evaluation H sees the report alone.  The bundled
incomplete-information game couples them: in truth the honesty evaluation is
being run, while A is sure the capability evaluation is.

The JSON documents under ``data/`` are the only definition of these examples.
Each accessor parses its document afresh, so callers may change what they get.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .bn import Cpd, Row
from .depth import DepthStack
from .gamedoc import GameDocument, parse_document
from .incomplete import IiMaid, InformationSet
from .maid import Maid

# Names the bundled documents use for agents, variables, labels and models.
AI, HUMAN = "A", "H"
CAPABILITY, REPORT, DEPLOY = "C", "D_A", "D_H"
AI_PAYOFF, HUMAN_PAYOFF = "U_A", "U_H"

HIGH, LOW = "high", "low"
GO, STOP = "deploy", "not_deploy"

GROUND_TRUTH = "ground_truth"
AI_VIEW = "ai_belief"


def _data():
    return resources.files("iimaid").joinpath("data")


def data_text(name: str) -> str:
    """The raw text of a bundled document."""
    return _data().joinpath(name).read_text("utf-8")


def load_bundled(name: str) -> GameDocument:
    return parse_document(data_text(name))


def honesty_evaluation() -> Maid:
    """H observes both the capability and the report before deploying.

    H is paid for deployments that follow an accurate report: +1 when the
    report matched the capability, -5 when it did not, 0 for no deployment.
    """
    return load_bundled("honesty_eval.maid.json").value


def capability_evaluation() -> Maid:
    """H observes only the report; payoffs reward deploying low capability.

    Deployment pays H +1 when the capability is in fact low and -5 when it is
    high, regardless of what was reported.
    """
    return load_bundled("capability_eval.maid.json").value


def evaluation_iimaid() -> IiMaid:
    """The bundled incomplete-information game.

    The honesty evaluation is objectively being run and H knows it, but A is
    certain the capability evaluation is; inside A's model everyone agrees on
    the capability evaluation, so beliefs are coherent but inconsistent.
    """
    return load_bundled("evaluation_game.iimaid.json").value


def evaluation_depth3_stack() -> DepthStack:
    """The bundled depth-3 reasoning stack over the evaluation games.

    The objective view is the honesty evaluation.  H models the game
    correctly but thinks A is reasoning inside the capability evaluation;
    in A's model of the game, H is a one-level reasoner who takes A's report
    to be truthful.
    """
    return load_bundled("evaluation_game_depth3.stack.json").value


def ne_ii_profile() -> dict[InformationSet, Row]:
    """The bundled equilibrium of the incomplete-information game.

    A always reports low; H deploys iff the report was accurate where both
    capability and report are visible, and mixes evenly where only the report
    is.
    """
    return load_bundled("evaluation_game_ne.profile.json").value.rules


def truthful_match_rules() -> dict[str, Cpd]:
    """Honesty evaluation equilibrium: truthful report, deploy iff accurate."""
    return load_bundled("truthful_match.profile.json").value.rules


def always_low_match_rules() -> dict[str, Cpd]:
    """Always report low against deploy-iff-accurate (not an equilibrium)."""
    return load_bundled("always_low_match.profile.json").value.rules


def always_low_deploy_low_rules() -> dict[str, Cpd]:
    """Capability evaluation equilibrium: report low, deploy iff report low."""
    return load_bundled("always_low_deploy_low.profile.json").value.rules


def write_data_files(target: str | Path) -> list[Path]:
    """Copy the bundled documents into ``target``; returns the paths written."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for source in sorted(_data().iterdir(), key=lambda s: s.name):
        if source.name.endswith(".json"):
            path = target / source.name
            path.write_bytes(source.read_bytes())
            written.append(path)
    return written
