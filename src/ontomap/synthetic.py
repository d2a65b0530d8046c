"""Small narrative snippets whose tokens overlap the bundled ontology's
lexicon, for end-to-end runs that exercise tagging."""

HEALTH_SNIPPETS = (
    ("d01", "Obesity is a chronic disease linked to excessive weight gain "
            "and abdominal obesity in adults."),
    ("d02", "A low carbohydrate diet restricts available carbohydrate and "
            "can support weight loss for obesity."),
    ("d03", "The mediterranean diet is a balanced diet pattern studied for "
            "obesity and heart disease."),
    ("d04", "Bariatric surgery is a treatment option when diet and physical "
            "exercise fail against severe obesity."),
    ("d05", "Type 2 diabetes often follows obesity; insulin resistance and "
            "fatigue are common signs."),
    ("d06", "Orlistat medication blocks fat absorption; side effects include "
            "abdominal pain and diarrhea."),
    ("d07", "Night eating syndrome is an eating disorder associated with "
            "obesity and poor sleep."),
    ("d08", "Physical exercise and a balanced diet remain first line "
            "treatment for obesity in most guidelines."),
    ("d09", "Sedentary lifestyle and overeating both contribute to obesity "
            "and weight gain over time."),
    ("d10", "Hypoglycemia can cause fatigue, sweating and abdominal pain in "
            "diabetes patients on medication."),
    ("d11", "A very low calorie diet is an intensive diet used briefly for "
            "severe obesity under supervision."),
    ("d12", "Weight loss after bariatric surgery improves type 2 diabetes "
            "and lowers body mass index."),
    ("d13", "Dietitians tailor the mediterranean diet or a low carbohydrate "
            "diet to each obesity patient."),
    ("d14", "Excess body fat measured by body mass index defines obesity in "
            "clinical practice."),
    ("d15", "Exercise programs reduce abdominal obesity and improve insulin "
            "sensitivity in diabetes."),
    ("d16", "Hernia repair can be complicated by obesity; weight loss before "
            "surgery reduces risk."),
    ("d17", "Medication for obesity such as orlistat complements diet and "
            "exercise rather than replacing them."),
    ("d18", "Eating disorder clinics screen for night eating syndrome among "
            "patients with obesity."),
    ("d19", "Symptoms like fatigue and signs like high body mass index guide "
            "the diagnosis of obesity."),
    ("d20", "Public health campaigns target overeating and sedentary "
            "lifestyle to prevent obesity and diabetes."),
)
