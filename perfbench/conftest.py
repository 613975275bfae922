import os
import sys

# the package is imported from the repository's src/, as run.py does
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
