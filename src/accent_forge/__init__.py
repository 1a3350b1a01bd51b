"""accent-forge: GMM-UBM accent classification pipeline.

Silence removal, normalized PLP-style cepstral features, PCA/HLDA
dimension reduction, an EM-trained universal background model with
MAP-adapted per-accent models, and a vowel-weighted ensemble classifier.
"""
