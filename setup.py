"""Legacy setup shim.

The metadata lives in pyproject.toml.  ``pip install -e .`` needs a
``bdist_wheel`` command (the ``wheel`` package, or setuptools >= 70.1);
where neither is installed, this file keeps ``python setup.py develop``
working as the editable install.
"""

from setuptools import setup

setup()
