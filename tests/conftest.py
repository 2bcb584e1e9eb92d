import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline, so a slow or busy machine
# cannot make them flake.
settings.register_profile("voxscript", deadline=None, derandomize=True, database=None)
settings.load_profile("voxscript")
